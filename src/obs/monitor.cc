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
    if (progress_line_open_) {
        std::fputc('\n', stderr);
        progress_line_open_ = false;
    }
}

void
FleetMonitor::emitEvent(const std::string &type, std::int64_t point,
                        std::uint64_t attempt, const std::string &detail)
{
    if (events_ == nullptr)
        return;
    Event event;
    event.type = type;
    event.t_ms = steadyNowMs();
    event.point = point;
    event.attempt = attempt;
    event.detail = detail;
    events_->record(event);
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
    return status;
}

void
FleetMonitor::publish(bool force)
{
    if (!sweep_started_)
        return; // nothing to show before the first sweep
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
    live_ = SweepStatus{};
    live_.experiment = experiment;
    live_.total = total;
    rate_ = RateEstimator();
    sweep_start_ms_ = steadyNowMs();
    sweep_started_ = true;
    emitEvent(journaled > 0 ? "sweep_resume" : "sweep_start", -1,
              journaled, experiment);
    publish(true);
}

void
FleetMonitor::sweepFinished(bool interrupted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    live_.state = interrupted ? "interrupted" : "finished";
    emitEvent(interrupted ? "sweep_interrupted" : "sweep_finish", -1, 0,
              live_.experiment);
    publish(true);
    if (progress_line_open_) {
        std::fputc('\n', stderr);
        std::fflush(stderr);
        progress_line_open_ = false;
    }
}

void
FleetMonitor::pointFinished(std::uint64_t index, PointEnding ending,
                            const std::string &status,
                            std::uint32_t attempts,
                            const std::string &detail)
{
    static constexpr const char *kEvent[] = { // in PointEnding order
        "point_complete", "point_replay", "point_interrupted"};
    std::lock_guard<std::mutex> lock(mutex_);
    ++live_.done;
    live_.executed += ending == PointEnding::Ran;
    live_.replayed += ending == PointEnding::Replayed;
    live_.failed += status != "ok" && ending != PointEnding::Interrupted;
    // Only executed points feed the rate estimator: journal replays are
    // near-instant and would wreck the ETA.
    if (ending == PointEnding::Ran)
        rate_.notePoint(steadyNowMs());
    emitEvent(kEvent[static_cast<std::size_t>(ending)],
              static_cast<std::int64_t>(index), attempts,
              status == "ok" ? status : status + ": " + detail);
    publish(false);
}

} // namespace padc::obs
