/**
 * @file
 * The digest line of one BENCH point, as tests/exp/golden/points.txt
 * holds it:
 *
 *   <experiment> <index> <status> <cycles> <digest>
 *
 * The digest is a 64-bit FNV-1a over the point's label and every
 * metric's name and double bits (metric names in sorted order). `key`
 * and `attempts` are left out, so adding or removing a keyed config
 * field does not churn the file, and a replayed point reads as a
 * computed one.
 */

#ifndef PADC_TESTS_EXP_GOLDEN_LINE_HH
#define PADC_TESTS_EXP_GOLDEN_LINE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/fnv.hh"
#include "exp/json.hh"

namespace padc::exp
{

/** The digest of a point's @p label and @p metrics; see the file comment. */
inline std::uint64_t
goldenDigest(const std::string &label, const JsonValue &metrics)
{
    // Each string is hashed with its terminating NUL, so the boundary
    // between two fields is part of the digest.
    std::uint64_t hash = fnv1a(label.c_str(), label.size() + 1);
    for (const auto &[name, value] : metrics.object) {
        hash = fnv1a(name.c_str(), name.size() + 1, hash);
        const double number = value.isNumber()
                                  ? value.number
                                  : std::numeric_limits<double>::quiet_NaN();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &number, sizeof(bits));
        hash = fnv1a(&bits, sizeof(bits), hash);
    }
    return hash;
}

/**
 * The golden line of @p point, the @p index'th point of @p experiment's
 * BENCH file; "" when the point lacks a member the line needs.
 */
inline std::string
goldenLine(const std::string &experiment, std::size_t index,
           const JsonValue &point)
{
    const JsonValue *label = point.find("label");
    const JsonValue *status = point.find("status");
    const JsonValue *cycles = point.find("cycles");
    const JsonValue *metrics = point.find("metrics");
    if (label == nullptr || status == nullptr || cycles == nullptr ||
        metrics == nullptr || !metrics->isObject())
        return "";
    char line[256];
    std::snprintf(line, sizeof(line), "%s %zu %s %llu %016llx",
                  experiment.c_str(), index, status->string.c_str(),
                  static_cast<unsigned long long>(cycles->number),
                  static_cast<unsigned long long>(
                      goldenDigest(label->string, *metrics)));
    return line;
}

} // namespace padc::exp

#endif // PADC_TESTS_EXP_GOLDEN_LINE_HH
