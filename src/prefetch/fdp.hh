/**
 * @file
 * Feedback Directed Prefetching (Srinath et al., HPCA-13; paper
 * reference [32], compared against in Section 6.12).
 *
 * FDP periodically measures prefetch accuracy, lateness, and cache
 * pollution and moves the prefetcher through five aggressiveness levels
 * (degree/distance pairs). High accuracy pushes aggressiveness up;
 * low accuracy or high pollution throttles it down; lateness nudges it
 * up when prefetches are accurate but not timely.
 *
 * The pollution signal comes from a compact filter that remembers lines
 * recently evicted by prefetch fills; a demand miss that hits the
 * filter counts as pollution.
 */

#ifndef PADC_PREFETCH_FDP_HH
#define PADC_PREFETCH_FDP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace padc::prefetch
{

class Prefetcher;

/** FDP thresholds (defaults follow the paper's Section 6.12 tuning). */
struct FdpConfig
{
    Cycle interval = 100000;     ///< evaluation interval, cycles
    double accuracy_high = 0.90; ///< accuracy above: ramp up
    double accuracy_low = 0.40;  ///< accuracy below: throttle down
    double lateness_threshold = 0.01;  ///< late/useful above: ramp up
    double pollution_threshold = 0.005; ///< polluting misses / demand
                                        ///< accesses above: throttle down
    std::uint32_t pollution_filter_bits = 4096;
    std::uint32_t initial_level = 3; ///< 1..5
};

/** FdpConfig's field table; see common/fields.hh. */
template <fields::Of<FdpConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("interval", s.interval);
    v("accuracy_high", s.accuracy_high);
    v("accuracy_low", s.accuracy_low);
    v("lateness_threshold", s.lateness_threshold);
    v("pollution_threshold", s.pollution_threshold);
    v("pollution_filter_bits", s.pollution_filter_bits);
    v("initial_level", s.initial_level);
}
static_assert(fields::complete<FdpConfig>());

/**
 * Remembers lines recently evicted by prefetch fills (bit-vector
 * filter). Used to attribute later demand misses to prefetch-induced
 * pollution.
 */
class PollutionFilter
{
  public:
    explicit PollutionFilter(std::uint32_t bits);

    /** A prefetch fill evicted @p line_addr. */
    void insert(Addr line_addr);

    /**
     * A demand miss occurred for @p line_addr; if the filter remembers
     * it, the miss is attributed to pollution and the bit is cleared.
     */
    bool checkAndClear(Addr line_addr);

  private:
    std::uint32_t indexOf(Addr line_addr) const;
    std::vector<bool> bits_;
};

/**
 * The FDP aggressiveness governor. The owner feeds it per-interval raw
 * event counts; it exposes the resulting (degree, distance) to apply to
 * the underlying prefetcher.
 */
class FdpController
{
  public:
    explicit FdpController(const FdpConfig &config);

    /** Raw event counts since the previous interval boundary. */
    struct IntervalCounts
    {
        std::uint64_t prefetches_sent = 0;
        std::uint64_t prefetches_used = 0;
        std::uint64_t late_prefetches = 0; ///< demand matched in-flight pf
        std::uint64_t pollution_misses = 0;
        std::uint64_t demand_accesses = 0;
    };

    /** Evaluate one interval and update the aggressiveness level. */
    void evaluate(const IntervalCounts &counts);

    std::uint32_t level() const { return level_; }

    std::uint32_t degree() const { return kLevels[level_ - 1].degree; }
    std::uint32_t distance() const { return kLevels[level_ - 1].distance; }

    const FdpConfig &config() const { return config_; }

  private:
    struct LevelParams
    {
        std::uint32_t degree;
        std::uint32_t distance;
    };

    /** Five aggressiveness levels (degree, distance), as in HPCA-13. */
    static constexpr std::array<LevelParams, 5> kLevels = {
        LevelParams{1, 4}, LevelParams{1, 8}, LevelParams{2, 16},
        LevelParams{4, 32}, LevelParams{4, 64}};

    FdpConfig config_;
    std::uint32_t level_;
};

} // namespace padc::prefetch

#endif // PADC_PREFETCH_FDP_HH
