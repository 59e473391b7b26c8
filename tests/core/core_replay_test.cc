/**
 * @file
 * Replay property of the core model: a core that ticks only at
 * nextEventCycle() and replays the gaps with accountIdleCycles() must be
 * indistinguishable from one that ticks every cycle -- the same memory
 * port calls on the same cycles, the same CoreStats, and the same cycles
 * on which its retire goals are crossed. The matrix covers retire, fetch
 * and window widths, LSQ sizes, compute gaps and runahead settings no
 * experiment uses, so the compute-stretch rule is checked where its
 * steady-occupancy and block-boundary conditions matter.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/core.hh"
#include "core/trace.hh"

namespace padc::core
{
namespace
{

/** One accepted port call (parked bounces are counted by CoreStats). */
struct PortCall
{
    Cycle at;
    Addr addr;
    bool is_load;
    bool runahead;
    std::uint64_t tag;

    bool operator==(const PortCall &) const = default;
};

/** A Pending reply's completion, delivered by the harness. */
struct Completion
{
    Cycle due;
    std::uint64_t tag;
};

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

/**
 * Scripted memory port whose replies depend only on the access and on
 * how many of its misses are in flight: a hit completes in a few
 * cycles, a miss is Pending with a per-line latency, and a miss while
 * kMissCap are in flight bounces with a parked Retry (as a full MSHR
 * file does), to be woken by the next completion.
 */
class ScriptedPort : public MemoryPort
{
  public:
    static constexpr std::uint32_t kMissCap = 3;

    AccessReply
    access(CoreId, Addr addr, Addr, bool is_load, std::uint64_t tag,
           bool runahead, Cycle now) override
    {
        const std::uint64_t h = mix64(lineAlign(addr));
        if (h % 3 != 0) {
            calls.push_back({now, addr, is_load, runahead, tag});
            return {AccessStatus::Complete, now + 2 + (h >> 8) % 16};
        }
        if (in_flight.size() >= kMissCap)
            return {AccessStatus::Retry, 0, /*park=*/true};
        calls.push_back({now, addr, is_load, runahead, tag});
        in_flight.push_back({now + 20 + (h >> 16) % 180, tag});
        return {AccessStatus::Pending, 0};
    }

    std::vector<PortCall> calls;
    std::vector<Completion> in_flight; ///< in issue order
};

/** The retire goals a System passes: warm-up, then the target. */
constexpr std::array<std::uint64_t, 2> kGoals = {1003, 3001};

/**
 * A core with its port, driven either every cycle or, like
 * System::run, only at its cached next-event bound.
 */
struct Driven
{
    Driven(const CoreConfig &cfg, const std::vector<TraceOp> &ops,
           bool skip_idle)
        : trace(ops), core(0, cfg, trace, port), skip(skip_idle)
    {
    }

    std::uint64_t goal() const
    {
        return crossed < kGoals.size() ? kGoals[crossed] : 0;
    }

    /** Replay the skipped cycles before @p until. */
    void settle(Cycle until)
    {
        if (until > idle_from) {
            core.accountIdleCycles(until - idle_from);
            idle_from = until;
        }
    }

    /** One cycle: completions due now, then the tick if due. */
    void step(Cycle now)
    {
        auto &q = port.in_flight;
        for (std::size_t i = 0; i < q.size();) {
            if (q[i].due != now) {
                ++i;
                continue;
            }
            const std::uint64_t tag = q[i].tag;
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
            settle(now); // before completeLoad() changes the state
            core.completeLoad(tag, now);
            next = 0;
        }
        if (skip && next > now)
            return;
        settle(now);
        core.tick(now);
        ++ticks;
        idle_from = now + 1;
        while (crossed < kGoals.size() &&
               core.stats().instructions >= kGoals[crossed]) {
            crossed_at[crossed] = now + 1;
            ++crossed;
        }
        if (skip)
            next = core.nextEventCycle(now + 1, goal());
    }

    VectorTrace trace;
    ScriptedPort port;
    Core core;
    bool skip;
    Cycle next = 0;
    Cycle idle_from = 0;
    std::uint64_t ticks = 0;
    std::size_t crossed = 0;
    std::array<Cycle, kGoals.size()> crossed_at{};
};

/** Memory ops every few compute instructions: loads and stores, some
    address-dependent, over lines that hit or miss in ScriptedPort. */
std::vector<TraceOp>
makeOps(std::uint32_t gap)
{
    std::vector<TraceOp> ops;
    for (std::uint32_t i = 0; i < 48; ++i) {
        TraceOp op;
        op.compute_gap = gap + i % 5;
        op.addr = 0x100000 + static_cast<Addr>(mix64(i) % 4096) * 64;
        op.pc = 0x400 + i * 4;
        op.is_load = i % 7 != 3;
        op.dependent = i % 5 == 2;
        ops.push_back(op);
    }
    return ops;
}

void
expectSameStats(const CoreStats &a, const CoreStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.load_stall_cycles, b.load_stall_cycles);
    EXPECT_EQ(a.mem_ops_issued, b.mem_ops_issued);
    EXPECT_EQ(a.issue_retries, b.issue_retries);
    EXPECT_EQ(a.runahead_episodes, b.runahead_episodes);
    EXPECT_EQ(a.runahead_ops_issued, b.runahead_ops_issued);
}

TEST(CoreReplay, SkippingCoreMatchesTickingCore)
{
    constexpr Cycle kMaxCycles = 200000;
    constexpr Cycle kTail = 257; // keep running past the last goal
    std::uint64_t ticks = 0; // of the skipping cores
    std::uint64_t cycles = 0;
    std::uint64_t parked_retries = 0;
    std::uint64_t runahead_ops = 0;
    for (std::uint32_t retire : {1u, 4u})
    for (std::uint32_t fetch : {2u, 4u, 8u})
    for (std::uint32_t window : {4u, 32u, 256u})
    for (std::uint32_t lsq : {1u, 32u})
    for (std::uint32_t gap : {3u, 40u, 400u})
    for (bool runahead : {false, true}) {
        CoreConfig cfg;
        cfg.retire_width = retire;
        cfg.fetch_width = fetch;
        cfg.window_size = window;
        cfg.lsq_size = lsq;
        cfg.runahead = runahead;
        const std::vector<TraceOp> ops = makeOps(gap);
        SCOPED_TRACE("R=" + std::to_string(retire) + " F=" +
                     std::to_string(fetch) + " W=" +
                     std::to_string(window) + " LSQ=" +
                     std::to_string(lsq) + " gap=" + std::to_string(gap) +
                     (runahead ? " runahead" : ""));

        Driven ticked(cfg, ops, false);
        Driven skipped(cfg, ops, true);
        Cycle end = kMaxCycles;
        for (Cycle t = 0; t < end; ++t) {
            ticked.step(t);
            skipped.step(t);
            if (ticked.crossed == kGoals.size() && end == kMaxCycles)
                end = t + kTail;
        }
        skipped.settle(end);

        ASSERT_EQ(ticked.crossed, kGoals.size());
        ASSERT_EQ(skipped.crossed, ticked.crossed);
        EXPECT_EQ(skipped.crossed_at, ticked.crossed_at);
        expectSameStats(skipped.core.stats(), ticked.core.stats());
        ASSERT_EQ(skipped.port.calls.size(), ticked.port.calls.size());
        EXPECT_TRUE(skipped.port.calls == ticked.port.calls);
        if (HasFailure())
            return; // the first failing configuration is enough
        ticks += skipped.ticks;
        cycles += end;
        parked_retries += ticked.core.stats().issue_retries;
        runahead_ops += ticked.core.stats().runahead_ops_issued;
    }
    // Not vacuous: the matrix parks, runs ahead, and skips most cycles.
    EXPECT_GT(parked_retries, 0u);
    EXPECT_GT(runahead_ops, 0u);
    EXPECT_LT(ticks * 2, cycles);
}

} // namespace
} // namespace padc::core
