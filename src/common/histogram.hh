/**
 * @file
 * Fixed-bucket histogram of the simulator statistics (the Fig. 4(a)
 * prefetch service-time distribution).
 */

#ifndef PADC_COMMON_HISTOGRAM_HH
#define PADC_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace padc
{

/**
 * Fixed-bucket histogram.
 *
 * Buckets are [0,width), [width,2*width), ...; samples beyond the last
 * bucket are accumulated in an overflow bucket.
 */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket, @param buckets count. */
    Histogram(std::uint64_t bucket_width, std::uint32_t buckets);

    /** Record one sample. */
    void sample(std::uint64_t value);

    /** Number of samples recorded in bucket i (i == buckets() => overflow). */
    std::uint64_t count(std::uint32_t i) const;

    /** Number of regular (non-overflow) buckets. */
    std::uint32_t buckets() const
    {
        return static_cast<std::uint32_t>(counts_.size() - 1);
    }

    std::uint64_t bucketWidth() const { return width_; }

    /** Total samples across all buckets including overflow. */
    std::uint64_t total() const { return total_; }

    /** Arithmetic mean of all samples. */
    double mean() const;

    /** Largest sample recorded (0 when empty). */
    std::uint64_t max() const { return max_; }

    /**
     * Value below which at least @p p percent of samples fall,
     * estimated from the bucket layout: the smallest bucket upper edge
     * whose cumulative count covers the rank. Within the overflow
     * bucket the exact maximum is returned (the histogram tracks it),
     * so p100 is always the true max. @p p is clamped to [0, 100];
     * returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    void reset();

  private:
    std::uint64_t width_;
    std::vector<std::uint64_t> counts_; // last entry = overflow
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
    std::uint64_t max_ = 0;
};

} // namespace padc

#endif // PADC_COMMON_HISTOGRAM_HH
