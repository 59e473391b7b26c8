#include "memctrl/dropping.hh"

namespace padc::memctrl
{

ApdUnit::ApdUnit(const SchedulerConfig &config,
                 const AccuracyTracker &tracker)
    : config_(config), tracker_(tracker)
{
}

Cycle
ApdUnit::dropThreshold(CoreId core) const
{
    const double acc = tracker_.accuracy(core);
    const auto &bounds = config_.drop_accuracy_bounds;
    std::uint32_t band = 3;
    if (acc < bounds[0])
        band = 0;
    else if (acc < bounds[1])
        band = 1;
    else if (acc < bounds[2])
        band = 2;
    return config_.drop_thresholds[band];
}

bool
ApdUnit::shouldDrop(const Request &req, Cycle now) const
{
    if (!req.isPrefetch())
        return false;
    if (req.state != RequestState::Queued)
        return false;
    return req.ageCycles(now) >= dropDelay(req.core);
}

Cycle
ApdUnit::dropDelay(CoreId core) const
{
    // AGE is kept at age_quantum granularity in hardware, so the
    // quantized age first exceeds threshold T at age (T/q + 1)*q: the
    // smallest multiple of the quantum that is strictly greater than T.
    const Cycle q = config_.age_quantum;
    return (dropThreshold(core) / q + 1) * q;
}

} // namespace padc::memctrl
