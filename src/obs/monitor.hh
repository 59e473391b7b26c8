/**
 * @file
 * FleetMonitor: the single observer the sweeps notify (DESIGN.md
 * section 14). It keeps the current sweep's counters in a SweepStatus
 * and prints them as the stderr --progress line.
 *
 * Each point's final outcome comes once, from the sweep body
 * (sim::runPoints), with its PointEnding named by the caller.
 *
 * Wiring follows the notePointCompleted() precedent (sim/interrupt.hh):
 * a process-global nullable pointer, installed by the driver when
 * --progress is given and left null otherwise, so the sim layer needs
 * no dependency injection and default runs pay one predicted-null
 * branch per event. All methods take plain types (strings, counts,
 * the PointEnding enum) — the sim layer does not leak into obs.
 *
 * Thread-safety: every public method locks an internal mutex (the
 * sweep reports from runner threads).
 */

#ifndef PADC_OBS_MONITOR_HH
#define PADC_OBS_MONITOR_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/status.hh"

namespace padc::obs
{

class FleetMonitor
{
  public:
    /**
     * Observe sweeps on stderr. The progress line waits for the first
     * sweepStarted.
     */
    FleetMonitor();

    FleetMonitor(const FleetMonitor &) = delete;
    FleetMonitor &operator=(const FleetMonitor &) = delete;

    /** Closes an open progress line. */
    ~FleetMonitor();

    /** A sweep of @p total points begins for @p experiment. */
    void sweepStarted(const std::string &experiment, std::uint64_t total);

    /** The sweep returned (cleanly or after an interrupt drain). */
    void sweepFinished();

    /**
     * A point reached its final @p ending. It counts toward `done`;
     * Ran also toward the rate estimator (so resumes and drains do not
     * distort the ETA), Replayed toward `replayed`.
     */
    void pointFinished(PointEnding ending);

  private:
    /** Print the progress line; callers hold mutex_. */
    void publish(bool force);

    std::mutex mutex_;
    SweepStatus live_; ///< counters of the current sweep
    RateEstimator rate_;
    std::uint64_t last_progress_ms_ = 0;
    bool sweep_started_ = false; ///< publish nothing before the first
    bool stderr_tty_ = false;
    bool progress_line_open_ = false; ///< tty: \r-rewritten line active
};

/** The installed monitor, or nullptr when observability is off. */
FleetMonitor *activeMonitor();

/** Install (or clear with nullptr) the process-global monitor. */
void setActiveMonitor(FleetMonitor *monitor);

} // namespace padc::obs

#endif // PADC_OBS_MONITOR_HH
