/**
 * @file
 * The golden_points gate: reruns `padc run smoke_grid fig09 --threads 2`
 * through the real driver binary, reads the BENCH_smoke_grid.json and
 * BENCH_fig09.json it writes into PADC_GOLDEN_OUT, and compares every
 * point with the digests committed in tests/exp/golden/points.txt, one
 * line per point:
 *
 *   <experiment> <index> <status> <cycles> <digest>
 *
 * The digest is a 64-bit FNV-1a over the point's label and every
 * metric's name and double bits (metric names in sorted order). `key`
 * and `attempts` are left out, so adding or removing a keyed config
 * field does not churn the file.
 *
 * The actual lines are always written to points.txt in the build-tree
 * directory PADC_GOLDEN_OUT (next to the BENCH files of the run). On a
 * mismatch the gate prints the first differing point (its label, the
 * expected and actual status, cycles and digest, and the actual
 * metrics) and the `cp` command that accepts the new results; a change
 * that moves simulated results on purpose runs that command and says
 * why in its change log.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "exp/json.hh"

namespace
{

using padc::exp::JsonValue;

/** One point of the run, as its digest line plus what explains it. */
struct Point
{
    std::string line;
    std::string label;
    const JsonValue *metrics = nullptr;
};

std::uint64_t
digest(const std::string &label, const JsonValue &metrics)
{
    // Each string is hashed with its terminating NUL, so the boundary
    // between two fields is part of the digest.
    std::uint64_t hash = padc::fnv1a(label.c_str(), label.size() + 1);
    for (const auto &[name, value] : metrics.object) {
        hash = padc::fnv1a(name.c_str(), name.size() + 1, hash);
        const double number = value.isNumber()
                                  ? value.number
                                  : std::numeric_limits<double>::quiet_NaN();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &number, sizeof(bits));
        hash = padc::fnv1a(&bits, sizeof(bits), hash);
    }
    return hash;
}

/** The experiments of the run, in run order. */
const char *const kExperiments[] = {"smoke_grid", "fig09"};

/** Run the driver; its BENCH files land in PADC_GOLDEN_OUT. */
bool
runDriver()
{
    std::string command = "'" PADC_DRIVER_BIN "' run";
    for (const char *experiment : kExperiments)
        command += std::string(" ") + experiment;
    command += " --threads 2 --out '" PADC_GOLDEN_OUT "' > /dev/null";
    const int status = std::system(command.c_str());
    if (status != 0)
        std::fprintf(stderr, "golden_points: '%s' exited with status %d\n",
                     command.c_str(), status);
    return status == 0;
}

/** Parse PADC_GOLDEN_OUT's BENCH file of @p experiment into @p doc. */
bool
loadBench(const std::string &experiment, JsonValue *doc, std::string *error)
{
    const std::string path =
        PADC_GOLDEN_OUT "/BENCH_" + experiment + ".json";
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (padc::exp::parseJson(text, doc, error))
        return true;
    *error = path + ": " + *error;
    return false;
}

/** Append the digest lines of every point of @p result, in run order. */
bool
collectPoints(const JsonValue &result, std::vector<Point> *points)
{
    const JsonValue *name = result.find("name");
    const JsonValue *list = result.find("points");
    if (name == nullptr || list == nullptr || !list->isArray())
        return false;
    for (std::size_t i = 0; i < list->array.size(); ++i) {
        const JsonValue &entry = list->array[i];
        const JsonValue *label = entry.find("label");
        const JsonValue *status = entry.find("status");
        const JsonValue *cycles = entry.find("cycles");
        const JsonValue *metrics = entry.find("metrics");
        if (label == nullptr || status == nullptr || cycles == nullptr ||
            metrics == nullptr || !metrics->isObject())
            return false;
        char line[256];
        std::snprintf(line, sizeof(line), "%s %zu %s %llu %016llx",
                      name->string.c_str(), i, status->string.c_str(),
                      static_cast<unsigned long long>(cycles->number),
                      static_cast<unsigned long long>(
                          digest(label->string, *metrics)));
        points->push_back({line, label->string, metrics});
    }
    return true;
}

} // namespace

int
main()
{
    if (!runDriver())
        return 1;
    JsonValue docs[std::size(kExperiments)];
    std::vector<Point> actual;
    for (std::size_t k = 0; k < std::size(kExperiments); ++k) {
        std::string error;
        if (!loadBench(kExperiments[k], &docs[k], &error) ||
            !collectPoints(docs[k], &actual)) {
            std::fprintf(stderr, "golden_points: no usable run output %s\n",
                         error.c_str());
            return 1;
        }
    }

    const std::string actual_path = PADC_GOLDEN_OUT "/points.txt";
    {
        std::ofstream out(actual_path);
        for (const Point &point : actual)
            out << point.line << "\n";
    }

    std::vector<std::string> expected;
    {
        std::ifstream in(PADC_GOLDEN_POINTS);
        for (std::string line; std::getline(in, line);)
            expected.push_back(line);
    }

    for (std::size_t i = 0; i < actual.size() || i < expected.size(); ++i) {
        const std::string want = i < expected.size() ? expected[i] : "";
        const std::string got = i < actual.size() ? actual[i].line : "";
        if (want == got)
            continue;
        std::fprintf(stderr,
                     "golden_points: point %zu differs from %s\n"
                     "  label:    %s\n"
                     "  expected: %s\n"
                     "  actual:   %s\n",
                     i, PADC_GOLDEN_POINTS,
                     i < actual.size() ? actual[i].label.c_str()
                                       : "(no such point)",
                     want.empty() ? "(no such point)" : want.c_str(),
                     got.empty() ? "(no such point)" : got.c_str());
        if (i < actual.size()) {
            std::fprintf(stderr, "  actual metrics:\n");
            for (const auto &[name, value] : actual[i].metrics->object)
                std::fprintf(stderr, "    %s %s\n", name.c_str(),
                             value.isNumber()
                                 ? padc::exp::jsonNumber(value.number).c_str()
                                 : "null");
        }
        std::fprintf(stderr,
                     "golden_points: the whole actual file is %s; if the "
                     "change is meant to move results, accept it with\n"
                     "  cp %s %s\n",
                     actual_path.c_str(), actual_path.c_str(),
                     PADC_GOLDEN_POINTS);
        return 1;
    }
    std::printf("golden_points: %zu points match %s\n", actual.size(),
                PADC_GOLDEN_POINTS);
    return 0;
}
