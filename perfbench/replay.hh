/**
 * @file
 * Standalone replays of the layers that are only reachable inside
 * System::run. Each replay drives a fresh instance of one layer through
 * its public functions, with input captured from a traced run of the
 * same point, and times only the calls into that layer. The replay also
 * reports its own work counts so the caller can check them against the
 * in-system counts before trusting the host time.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "sim/system.hh"
#include "telemetry/telemetry.hh"

namespace perfbench
{

/** One memory operation as the core received it from its trace source. */
struct CapturedOp
{
    padc::Addr addr = 0;
    padc::Addr pc = 0;
    bool is_load = true;
};

/** Everything captured from one traced point. */
struct Capture
{
    padc::sim::SystemConfig config; ///< collector pointer cleared
    std::vector<padc::telemetry::TraceEvent> events;
    std::vector<padc::telemetry::IntervalRow> rows;
    std::vector<std::vector<CapturedOp>> ops; ///< per core, in order
    std::vector<std::uint64_t> retries;       ///< per core: issue retries
    padc::Cycle cycles = 0;                   ///< simulated end of run
};

struct MemctrlReplay
{
    std::uint64_t ticks = 0;    ///< controller tick() calls
    std::uint64_t reads = 0;    ///< serviced reads (demand + prefetch)
    std::uint64_t row_hits = 0; ///< reads serviced as row hits
    double host_s = 0.0; ///< includes the controller's own DRAM channel
};

struct DramReplay
{
    std::uint64_t commands = 0;
    std::uint64_t illegal = 0; ///< commands the channel would not accept
    padc::dram::ChannelStats stats;
    double host_s = 0.0;
};

struct CacheReplay
{
    std::uint64_t accesses = 0;    ///< L1 lookups, retries included
    std::uint64_t l2_accesses = 0; ///< L1 misses, retries included
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_fills = 0; ///< demand and prefetch lines filled
    double host_s = 0.0;
};

struct PrefetchReplay
{
    std::uint64_t observes = 0;
    std::uint64_t candidates = 0;
    double host_s = 0.0;
};

/**
 * Replay the Enqueue/EnqueueWrite/Promote stream at its recorded cycles
 * into one standalone MemoryController per channel, each over its own
 * dram::Channel. PAR follows the run: the prefetch-used count of every
 * accuracy interval (from the time series) is fed to the replay's own
 * AccuracyTracker just before that interval closes.
 */
MemctrlReplay replayMemctrl(const Capture &capture);

/** Replay the PRE/ACT/RD/WR/REF stream into standalone Channels. */
DramReplay replayDram(const Capture &capture);

/**
 * Replay each core's op stream through its own L1, L2 and MSHR file
 * with instant fills, and the L2 accesses through a fresh prefetcher.
 * Two things the op stream does not show come from the run: a prefetch
 * candidate fills only as often as the run filled that line by prefetch
 * (APD drops and full buffers fill nothing), and the run's lookups of a
 * line already in flight (issue retries and MSHR coalesces) are
 * re-issued as L1/L2/MSHR lookups, spread evenly over the demand misses.
 * The prefetcher's candidates are recorded in an untimed functional
 * pass, so the timed cache pass and the timed prefetch pass each call
 * only their own layer.
 */
void replayHierarchy(const Capture &capture, CacheReplay *cache,
                     PrefetchReplay *prefetch);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
