/**
 * @file
 * FleetMonitor: the single observer the sweeps notify (DESIGN.md
 * section 14). It fans each notification out to the two
 * observability surfaces in the run's --out directory — the
 * events.jsonl structured log, and the periodically atomic-renamed
 * status.json plus the stderr --progress line. The sweep counters
 * live once, in the SweepStatus both surfaces render.
 *
 * Each point's final outcome comes once, from the sweep body
 * (sim::runPoints), with its PointEnding named by the caller.
 *
 * Wiring follows the notePointCompleted() precedent (sim/interrupt.hh):
 * a process-global nullable pointer, installed by the driver when
 * --progress is given and left null otherwise, so the sim layer needs
 * no dependency injection and default runs pay one predicted-null
 * branch per event. All methods take plain types (indices, strings,
 * the PointEnding enum) — the sim layer does not leak into obs.
 *
 * Thread-safety: every public method locks an internal mutex (the
 * sweep reports from runner threads).
 */

#ifndef PADC_OBS_MONITOR_HH
#define PADC_OBS_MONITOR_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/events.hh"
#include "obs/status.hh"

namespace padc::obs
{

class FleetMonitor
{
  public:
    /**
     * Observe sweeps into @p out_dir: events.jsonl and status.json
     * there, and the progress line on stderr. An event log that cannot
     * be opened is reported on stderr and left off. Events are logged
     * from the start; status.json and the progress line wait for the
     * first sweepStarted.
     */
    explicit FleetMonitor(const std::string &out_dir);

    FleetMonitor(const FleetMonitor &) = delete;
    FleetMonitor &operator=(const FleetMonitor &) = delete;

    /** Closes an open progress line. */
    ~FleetMonitor();

    /**
     * A sweep of @p total points begins for @p experiment; @p journaled
     * is the number of entries loaded from a resume journal (> 0 emits
     * "sweep_resume" instead of "sweep_start").
     */
    void sweepStarted(const std::string &experiment, std::uint64_t total,
                      std::uint64_t journaled);

    /** The sweep returned (cleanly or after an interrupt drain). */
    void sweepFinished(bool interrupted);

    /**
     * Point @p index reached its final @p ending with @p status ("ok",
     * "truncated", "failed"). It counts toward `done`; Ran also toward
     * `executed` and the rate estimator (so resumes and drains do not
     * distort the ETA), Replayed toward `replayed`. A failed point
     * counts as `failed` unless it was interrupted.
     */
    void pointFinished(std::uint64_t index, PointEnding ending,
                       const std::string &status, std::uint32_t attempts,
                       const std::string &detail);

  private:
    void emitEvent(const std::string &type, std::int64_t point,
                   std::uint64_t attempt, const std::string &detail);
    SweepStatus buildStatus(std::uint64_t now_ms) const;
    /** Refresh status.json + progress line; callers hold mutex_. */
    void publish(bool force);

    std::string status_path_;
    std::unique_ptr<EventLog> events_;

    std::mutex mutex_;
    SweepStatus live_; ///< counters of the current sweep
    RateEstimator rate_;
    std::uint64_t sweep_start_ms_ = 0;
    std::uint64_t last_status_ms_ = 0;
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
