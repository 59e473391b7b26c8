/**
 * @file
 * FleetMonitor: the single observer the sweeps notify (DESIGN.md
 * section 14). It fans each notification out to the two
 * observability surfaces in the run's --out directory — the
 * events.jsonl structured log, and the periodically atomic-renamed
 * status.json plus the stderr --progress line. The sweep counters
 * live once, in the SweepStatus both surfaces render.
 *
 * Each point's final outcome comes once, from the sweep body both
 * executors share (sim::runPoints), with its PointEnding named by the
 * caller; the process pool adds the worker-level hooks.
 *
 * Wiring follows the notePointCompleted() precedent (sim/interrupt.hh):
 * a process-global nullable pointer, installed by the driver when
 * --progress is given and left null otherwise, so the sim layer needs
 * no dependency injection and default runs pay one predicted-null
 * branch per event. All methods take plain types (indices, pids,
 * strings, the PointEnding enum) — the sim layer does not leak into
 * obs.
 *
 * Thread-safety: every public method locks an internal mutex (the
 * in-thread sweep reports from runner threads; the pool supervisor is
 * single-threaded).
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

    /** Writes the final status.json, worker exits since the last
     * sweep included. */
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

    /** Point @p index handed to a worker (pool path only). */
    void pointDispatched(std::uint64_t index, std::size_t slot,
                         std::int64_t pid);

    /**
     * Point @p index reached its final @p ending with @p status ("ok",
     * "truncated", "failed"). It counts toward `done`; Ran also toward
     * `executed` and the rate estimator (so resumes and drains do not
     * distort the ETA), Replayed toward `replayed`, Quarantined toward
     * `quarantined`. A failed point counts as `failed` unless it was
     * interrupted. For Quarantined, @p detail is the last worker's
     * fate. @p slot >= 0 credits the pool worker slot that ran it.
     */
    void pointFinished(std::uint64_t index, PointEnding ending,
                       const std::string &status, std::uint32_t attempts,
                       const std::string &detail, std::int64_t slot = -1,
                       std::int64_t pid = -1);

    /** Point @p index will be retried after the worker death @p fate. */
    void pointRetried(std::uint64_t index, std::uint32_t attempt,
                      const std::string &fate);

    /** Worker lifecycle (pool path). */
    void workerSpawned(std::size_t slot, std::int64_t pid);
    void workerExited(std::size_t slot, std::int64_t pid,
                      const std::string &fate);
    void workerTimedOut(std::size_t slot, std::int64_t pid,
                        std::int64_t index);

    /** SIGINT/SIGTERM received; the pool is draining in-flight work. */
    void interruptDrain();

  private:
    void emitEvent(const std::string &type, std::int64_t point,
                   std::int64_t worker, std::uint64_t attempt,
                   const std::string &detail);
    SweepStatus buildStatus(std::uint64_t now_ms) const;
    /** Refresh status.json + progress line; callers hold mutex_. */
    void publish(bool force);
    WorkerStatus &slotRef(std::size_t slot);

    std::string status_path_;
    std::unique_ptr<EventLog> events_;

    std::mutex mutex_;
    SweepStatus live_; ///< counters; workers grows as slots appear
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
