#include "obs/monitor.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace padc::obs
{

namespace
{

std::atomic<FleetMonitor *> active_monitor{nullptr};

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

FleetMonitor::FleetMonitor()
{
    stderr_tty_ = ::isatty(STDERR_FILENO) == 1;
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
FleetMonitor::publish(bool force)
{
    if (!sweep_started_)
        return; // nothing to show before the first sweep
    const std::uint64_t now_ms = steadyNowMs();
    if (!force && now_ms - last_progress_ms_ < kProgressIntervalMs)
        return;
    SweepStatus status = live_;
    status.rate_per_sec = rate_.ratePerSec(now_ms);
    const std::uint64_t remaining =
        live_.total > live_.done ? live_.total - live_.done : 0;
    status.eta_seconds = rate_.etaSeconds(now_ms, remaining);
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

void
FleetMonitor::sweepStarted(const std::string &experiment,
                           std::uint64_t total)
{
    std::lock_guard<std::mutex> lock(mutex_);
    live_ = SweepStatus{};
    live_.experiment = experiment;
    live_.total = total;
    rate_ = RateEstimator();
    sweep_started_ = true;
    publish(true);
}

void
FleetMonitor::sweepFinished()
{
    std::lock_guard<std::mutex> lock(mutex_);
    publish(true);
    if (progress_line_open_) {
        std::fputc('\n', stderr);
        std::fflush(stderr);
        progress_line_open_ = false;
    }
}

void
FleetMonitor::pointFinished(PointEnding ending)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++live_.done;
    live_.replayed += ending == PointEnding::Replayed;
    // Only executed points feed the rate estimator: journal replays are
    // near-instant and would wreck the ETA.
    if (ending == PointEnding::Ran)
        rate_.notePoint(steadyNowMs());
    publish(false);
}

} // namespace padc::obs
