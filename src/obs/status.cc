#include "obs/status.hh"

#include <chrono>
#include <cstdio>

namespace padc::obs
{

std::uint64_t
steadyNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

RateEstimator::RateEstimator(std::size_t window)
    : window_(window == 0 ? 1 : window)
{
}

void
RateEstimator::notePoint(std::uint64_t now_ms)
{
    ++noted_;
    times_.push_back(now_ms);
    while (times_.size() > window_)
        times_.pop_front();
}

double
RateEstimator::ratePerSec(std::uint64_t now_ms) const
{
    if (times_.size() < 2)
        return 0.0;
    const std::uint64_t span_ms =
        now_ms > times_.front() ? now_ms - times_.front() : 1;
    return static_cast<double>(times_.size()) * 1000.0 /
           static_cast<double>(span_ms == 0 ? 1 : span_ms);
}

double
RateEstimator::etaSeconds(std::uint64_t now_ms,
                          std::uint64_t remaining) const
{
    const double rate = ratePerSec(now_ms);
    if (rate <= 0.0)
        return -1.0;
    return static_cast<double>(remaining) / rate;
}

namespace
{

std::string
formatEta(double eta_seconds)
{
    if (eta_seconds < 0.0)
        return "--";
    char buf[32];
    if (eta_seconds >= 3600.0) {
        std::snprintf(buf, sizeof(buf), "%.1fh", eta_seconds / 3600.0);
    } else if (eta_seconds >= 60.0) {
        std::snprintf(buf, sizeof(buf), "%.1fm", eta_seconds / 60.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1fs", eta_seconds);
    }
    return buf;
}

} // namespace

std::string
renderProgressLine(const SweepStatus &status)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "[padc] %s %llu/%llu done (%llu replayed) | %.2f pts/s ETA %s",
        status.experiment.empty() ? "sweep" : status.experiment.c_str(),
        static_cast<unsigned long long>(status.done),
        static_cast<unsigned long long>(status.total),
        static_cast<unsigned long long>(status.replayed),
        status.rate_per_sec, formatEta(status.eta_seconds).c_str());
    return buf;
}

} // namespace padc::obs
