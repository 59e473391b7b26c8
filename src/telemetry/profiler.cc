#include "telemetry/profiler.hh"

namespace padc::telemetry
{

WallProfiler &
WallProfiler::instance()
{
    static WallProfiler profiler;
    return profiler;
}

WallProfiler::Snapshot
WallProfiler::snapshot() const
{
    Snapshot snap;
    for (std::size_t i = 0; i < kProfilePhases; ++i) {
        snap.entries[i].nanos =
            cells_[i].nanos.load(std::memory_order_relaxed);
        snap.entries[i].calls =
            cells_[i].calls.load(std::memory_order_relaxed);
    }
    snap.skipped_cycles = skipped_cycles_.load(std::memory_order_relaxed);
    snap.event_jumps = event_jumps_.load(std::memory_order_relaxed);
    snap.landed_cycles = landed_cycles_.load(std::memory_order_relaxed);
    snap.core_ticks = core_ticks_.load(std::memory_order_relaxed);
    return snap;
}

void
WallProfiler::reset()
{
    for (auto &cell : cells_) {
        cell.nanos.store(0, std::memory_order_relaxed);
        cell.calls.store(0, std::memory_order_relaxed);
    }
    skipped_cycles_.store(0, std::memory_order_relaxed);
    event_jumps_.store(0, std::memory_order_relaxed);
    landed_cycles_.store(0, std::memory_order_relaxed);
    core_ticks_.store(0, std::memory_order_relaxed);
}

} // namespace padc::telemetry
