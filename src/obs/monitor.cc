#include "obs/monitor.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

namespace padc::obs
{

namespace
{

std::atomic<FleetMonitor *> active_monitor{nullptr};

/** status.json refresh throttle (5 Hz); bad news is forced through. */
constexpr std::uint64_t kStatusIntervalMs = 200;

/** stderr progress-line throttle (4 Hz). */
constexpr std::uint64_t kProgressIntervalMs = 250;

} // namespace

FleetMonitor *
activeMonitor()
{
    return active_monitor.load(std::memory_order_acquire);
}

void
setActiveMonitor(FleetMonitor *monitor)
{
    active_monitor.store(monitor, std::memory_order_release);
}

FleetMonitor::FleetMonitor(const std::string &out_dir)
    : status_path_((std::filesystem::path(out_dir) / kStatusFileName)
                       .string()),
      events_(std::make_unique<EventLog>(
          (std::filesystem::path(out_dir) / kEventsFileName).string()))
{
    if (!events_->ok()) {
        std::fprintf(stderr, "padc: %s\n", events_->error().c_str());
        events_.reset();
    }
    stderr_tty_ = ::isatty(STDERR_FILENO) == 1;
    sweep_start_ms_ = steadyNowMs();
}

FleetMonitor::~FleetMonitor()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The pool's workers exit after the last sweep finished; the final
    // status.json counts them gone.
    if (sweep_started_)
        writeStatusFile(status_path_, buildStatus(steadyNowMs()));
    if (progress_line_open_) {
        std::fputc('\n', stderr);
        progress_line_open_ = false;
    }
}

void
FleetMonitor::emitEvent(const std::string &type, std::int64_t point,
                        std::int64_t worker, std::uint64_t attempt,
                        const std::string &detail)
{
    if (events_ == nullptr)
        return;
    Event event;
    event.type = type;
    event.t_ms = steadyNowMs();
    event.point = point;
    event.worker = worker;
    event.attempt = attempt;
    event.detail = detail;
    events_->record(event);
}

WorkerStatus &
FleetMonitor::slotRef(std::size_t slot)
{
    if (live_.workers.size() <= slot)
        live_.workers.resize(slot + 1);
    return live_.workers[slot];
}

SweepStatus
FleetMonitor::buildStatus(std::uint64_t now_ms) const
{
    SweepStatus status = live_;
    status.elapsed_seconds =
        static_cast<double>(now_ms - sweep_start_ms_) / 1000.0;
    status.rate_per_sec = rate_.ratePerSec(now_ms);
    const std::uint64_t remaining =
        live_.total > live_.done ? live_.total - live_.done : 0;
    status.eta_seconds = rate_.etaSeconds(now_ms, remaining);
    status.active_workers = 0;
    for (const WorkerStatus &worker : live_.workers) {
        if (worker.pid >= 0)
            ++status.active_workers;
    }
    return status;
}

void
FleetMonitor::publish(bool force)
{
    if (!sweep_started_)
        return; // the pool spawns before the first sweep: nothing to show
    const std::uint64_t now_ms = steadyNowMs();
    const bool want_status =
        force || now_ms - last_status_ms_ >= kStatusIntervalMs;
    const bool want_progress =
        force || now_ms - last_progress_ms_ >= kProgressIntervalMs;
    if (!want_status && !want_progress)
        return;
    const SweepStatus status = buildStatus(now_ms);
    if (want_status) {
        writeStatusFile(status_path_, status);
        last_status_ms_ = now_ms;
    }
    if (want_progress) {
        const std::string line = renderProgressLine(status);
        if (stderr_tty_) {
            std::fprintf(stderr, "\r%s\033[K", line.c_str());
            progress_line_open_ = true;
        } else {
            std::fprintf(stderr, "%s\n", line.c_str());
        }
        std::fflush(stderr);
        last_progress_ms_ = now_ms;
    }
}

void
FleetMonitor::sweepStarted(const std::string &experiment,
                           std::uint64_t total, std::uint64_t journaled)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Per-sweep counters restart; worker slots persist (the pool
    // outlives individual experiments).
    live_.experiment = experiment;
    live_.state = "running";
    live_.total = total;
    live_.done = 0;
    live_.executed = 0;
    live_.replayed = 0;
    live_.failed = 0;
    live_.retries = 0;
    live_.quarantined = 0;
    rate_ = RateEstimator();
    sweep_start_ms_ = steadyNowMs();
    sweep_started_ = true;
    emitEvent(journaled > 0 ? "sweep_resume" : "sweep_start", -1, -1,
              journaled, experiment);
    publish(true);
}

void
FleetMonitor::sweepFinished(bool interrupted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    live_.state = interrupted ? "interrupted" : "finished";
    emitEvent(interrupted ? "sweep_interrupted" : "sweep_finish", -1, -1,
              0, live_.experiment);
    publish(true);
    if (progress_line_open_) {
        std::fputc('\n', stderr);
        std::fflush(stderr);
        progress_line_open_ = false;
    }
}

void
FleetMonitor::pointDispatched(std::uint64_t index, std::size_t slot,
                              std::int64_t pid)
{
    std::lock_guard<std::mutex> lock(mutex_);
    slotRef(slot).busy = true;
    emitEvent("point_dispatch", static_cast<std::int64_t>(index), pid, 0,
              "");
    publish(false);
}

void
FleetMonitor::pointFinished(std::uint64_t index, PointEnding ending,
                            const std::string &status,
                            std::uint32_t attempts,
                            const std::string &detail, std::int64_t slot,
                            std::int64_t pid)
{
    static constexpr const char *kEvent[] = { // in PointEnding order
        "point_complete", "point_replay", "point_interrupted",
        "point_quarantine", "point_stranded"};
    std::lock_guard<std::mutex> lock(mutex_);
    const bool quarantined = ending == PointEnding::Quarantined;
    ++live_.done;
    live_.executed += ending == PointEnding::Ran;
    live_.replayed += ending == PointEnding::Replayed;
    live_.quarantined += quarantined;
    live_.failed += status != "ok" && ending != PointEnding::Interrupted;
    // Only executed points feed the rate estimator: journal replays are
    // near-instant and would wreck the ETA.
    if (ending == PointEnding::Ran)
        rate_.notePoint(steadyNowMs());
    if (slot >= 0) {
        WorkerStatus &worker = slotRef(static_cast<std::size_t>(slot));
        worker.busy = false;
        ++worker.tasks;
    }
    emitEvent(kEvent[static_cast<std::size_t>(ending)],
              static_cast<std::int64_t>(index), pid, quarantined ? 0 : attempts,
              quarantined ? detail
                          : (status == "ok" ? status : status + ": " + detail));
    // A quarantine is bad news: never throttled away.
    publish(quarantined);
}

void
FleetMonitor::pointRetried(std::uint64_t index, std::uint32_t attempt,
                           const std::string &fate)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++live_.retries;
    emitEvent("point_retry", static_cast<std::int64_t>(index), -1,
              attempt, fate);
    // Forced: a retry burst must be visible even inside the throttle
    // window (the crash:3 acceptance scenario).
    publish(true);
}

void
FleetMonitor::workerSpawned(std::size_t slot, std::int64_t pid)
{
    std::lock_guard<std::mutex> lock(mutex_);
    WorkerStatus &worker = slotRef(slot);
    worker.pid = pid;
    worker.busy = false;
    emitEvent("worker_spawn", -1, pid, 0,
              "slot " + std::to_string(slot));
    publish(false);
}

void
FleetMonitor::workerExited(std::size_t slot, std::int64_t pid,
                           const std::string &fate)
{
    std::lock_guard<std::mutex> lock(mutex_);
    WorkerStatus &worker = slotRef(slot);
    worker.pid = -1;
    worker.busy = false;
    emitEvent("worker_exit", -1, pid, 0, fate);
    publish(false);
}

void
FleetMonitor::workerTimedOut(std::size_t slot, std::int64_t pid,
                             std::int64_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++slotRef(slot).kills;
    emitEvent("worker_timeout", index, pid, 0, "heartbeat timeout");
    publish(true);
}

void
FleetMonitor::interruptDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    emitEvent("interrupt_drain", -1, -1, 0,
              "draining in-flight points");
    publish(true);
}

} // namespace padc::obs
