/**
 * @file
 * Per-core prefetch accuracy measurement (paper Section 4.1).
 *
 * Hardware analogue: a Prefetch Sent Counter (PSC), Prefetch Used
 * Counter (PUC), and Prefetch Accuracy Register (PAR) per core. At the
 * end of every measurement interval, PAR := PUC / PSC and both counters
 * reset, so the estimate tracks program phase behaviour (cf. Fig 4(b)).
 *
 * PUC increments when a demand hits a prefetched cache line (P bit set)
 * or matches an in-flight prefetch request in the buffer; PSC
 * increments when a prefetch enters the buffer.
 *
 * One robustness addition over the paper: a prefetch dropped by APD is
 * removed from the *interval* PSC. Without this, a single
 * underestimated interval (short intervals are biased low by in-flight
 * prefetches) triggers mass drops, dropped prefetches can never be
 * used, and the estimate collapses into an absorbing zero that no real
 * phase change can escape. The lifetime totals (the reported ACC
 * metric) keep the paper's definitions.
 */

#ifndef PADC_MEMCTRL_ACCURACY_TRACKER_HH
#define PADC_MEMCTRL_ACCURACY_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace padc::memctrl
{

/** Configuration for AccuracyTracker. */
struct AccuracyConfig
{
    Cycle interval = 100000; ///< measurement interval, processor cycles

    /**
     * PAR value assumed before the first interval completes and whenever
     * an interval saw no prefetches. Defaults to optimistic (1.0) so a
     * fresh prefetcher is not penalized before it has been measured.
     */
    double initial_accuracy = 1.0;

    /**
     * Minimum interval PSC for a measurement to overwrite PAR; intervals
     * with fewer sent prefetches keep the previous estimate (a tiny
     * sample says little about the prefetcher).
     */
    std::uint32_t min_samples = 8;
};

/** AccuracyConfig's field table; see common/fields.hh. */
template <fields::Of<AccuracyConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("interval", s.interval);
    v("initial_accuracy", s.initial_accuracy);
    v("min_samples", s.min_samples);
}
static_assert(fields::complete<AccuracyConfig>());

/**
 * Tracks prefetch accuracy per core over fixed time intervals.
 */
class AccuracyTracker
{
  public:
    AccuracyTracker(std::uint32_t num_cores, const AccuracyConfig &config);

    /** A prefetch from @p core entered the memory request buffer. */
    void onPrefetchSent(CoreId core);

    /**
     * A prefetch from @p core proved useful: a demand hit the prefetched
     * line in the cache, or matched the request in the buffer.
     */
    void onPrefetchUsed(CoreId core);

    /**
     * A prefetch from @p core was administratively dropped by APD before
     * service: removed from the interval PSC (see file comment); the
     * lifetime sent total still counts it.
     */
    void onPrefetchDropped(CoreId core);

    /**
     * Advance interval bookkeeping; call at least once per cycle region.
     * Cheap: only does work when an interval boundary has passed.
     */
    void tick(Cycle now);

    /**
     * The next interval boundary tick() will roll over at. PAR values
     * change only at boundaries (or on explicit events), so the
     * event-driven main loop must not jump simulated time past this.
     */
    Cycle nextBoundary() const { return next_boundary_; }

    /** Current PAR estimate for @p core, in [0, 1]. */
    double accuracy(CoreId core) const { return cores_[core].par; }

    /** Lifetime totals (for ACC metric reporting, not used for control). */
    std::uint64_t totalSent(CoreId core) const
    {
        return cores_[core].total_sent;
    }
    std::uint64_t totalUsed(CoreId core) const
    {
        return cores_[core].total_used;
    }
    std::uint64_t totalDropped(CoreId core) const
    {
        return cores_[core].total_dropped;
    }

    const AccuracyConfig &config() const { return config_; }

  private:
    struct PerCore
    {
        std::uint64_t psc = 0; ///< sent this interval (minus drops)
        std::uint64_t puc = 0; ///< used this interval
        double par = 1.0;      ///< accuracy register
        std::uint64_t total_sent = 0;
        std::uint64_t total_used = 0;
        std::uint64_t total_dropped = 0;
    };

    AccuracyConfig config_;
    std::vector<PerCore> cores_;
    Cycle next_boundary_;
};

} // namespace padc::memctrl

#endif // PADC_MEMCTRL_ACCURACY_TRACKER_HH
