/**
 * @file
 * Adaptive Prefetch Dropping (APD) unit (paper Section 4.3).
 *
 * APD removes a prefetch request from the memory request buffer once it
 * has been outstanding longer than a per-core drop threshold. The
 * threshold adapts to the core's measured prefetch accuracy through a
 * four-level table (paper Table 6): low accuracy -> drop quickly, high
 * accuracy -> keep prefetches around.
 *
 * The unit never drops a request whose P bit is clear, so a prefetch
 * that has been promoted to a demand (matched by the processor) is
 * always safe; the controller invalidates the corresponding MSHR entry
 * via the drop callback before the entry disappears.
 */

#ifndef PADC_MEMCTRL_DROPPING_HH
#define PADC_MEMCTRL_DROPPING_HH

#include "common/types.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/policy.hh"
#include "memctrl/request.hh"

namespace padc::memctrl
{

/**
 * Decides which prefetch requests are stale enough to drop.
 */
class ApdUnit
{
  public:
    ApdUnit(const SchedulerConfig &config, const AccuracyTracker &tracker);

    /**
     * Drop threshold (processor cycles) currently in force for @p core,
     * from the accuracy-indexed table.
     */
    Cycle dropThreshold(CoreId core) const;

    /**
     * True when @p req should be removed from the buffer at cycle @p now:
     * it is a still-unpromoted prefetch, still queued (not in flight),
     * and its quantized AGE exceeds the core's drop threshold.
     */
    bool shouldDrop(const Request &req, Cycle now) const;

    /**
     * Age at which a queued prefetch of @p core becomes droppable under
     * the core's *current* threshold: the first multiple of the age
     * quantum above it, since AGE is quantized. Exact, not a bound:
     * shouldDrop is false while the age is below it and true once it
     * is reached (promotion state permitting). The controller caches it
     * per accuracy interval for its drop scan and next-event bound.
     */
    Cycle dropDelay(CoreId core) const;

  private:
    const SchedulerConfig &config_;
    const AccuracyTracker &tracker_;
};

} // namespace padc::memctrl

#endif // PADC_MEMCTRL_DROPPING_HH
