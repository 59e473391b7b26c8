/**
 * @file
 * Lightweight statistics containers shared across the library.
 *
 * Components keep their hot counters as plain struct members (no
 * indirection on the simulation fast path) and expose them through
 * StatSet snapshots for printing and for the experiment harness.
 * The companion fixed-bucket Histogram lives in common/histogram.hh.
 */

#ifndef PADC_COMMON_STATS_HH
#define PADC_COMMON_STATS_HH

#include <string>
#include <utility>
#include <vector>

namespace padc
{

/**
 * Ordered name -> value list used to export component statistics.
 *
 * Insertion order is preserved so dumps are stable and diffable.
 * Lookups (get/has) scan front to back, so when the same name was
 * added more than once they see the first occurrence.
 */
class StatSet
{
  public:
    /** Append a named scalar statistic. */
    void add(const std::string &name, double value);

    /**
     * Look up a statistic by exact name.
     * @retval value if present, 0.0 otherwise (missing stats read as zero
     *         so ratio code does not need existence checks).
     */
    double get(const std::string &name) const;

    /** True if a statistic with this exact name exists. */
    bool has(const std::string &name) const;

    /** All entries, in insertion order. */
    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return entries_;
    }

  private:
    /** The first entry named @p name, or nullptr. */
    const std::pair<std::string, double> *find(const std::string &name) const;

    std::vector<std::pair<std::string, double>> entries_;
};

/** Geometric mean of a vector of strictly-positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; returns 0 for an empty vector. */
double amean(const std::vector<double> &values);

/** Safe ratio: a/b, or 0 when b == 0. */
double ratio(double a, double b);

} // namespace padc

#endif // PADC_COMMON_STATS_HH
