/**
 * @file
 * Integration tests for the MemoryController driving a real Channel:
 * completion plumbing, policy-driven service order, promotion,
 * write-queue forwarding, APD drops, and buffer back-pressure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/controller.hh"

namespace padc::memctrl
{
namespace
{

/** Records completions and drops in arrival order. */
class RecordingHandler : public ResponseHandler
{
  public:
    struct Event
    {
        Addr line;
        bool was_prefetch;
        bool still_prefetch;
        Cycle at;
        Request::RowOutcome outcome;
    };

    void
    dramReadComplete(const Request &req, Cycle now) override
    {
        completions.push_back({req.line_addr, req.was_prefetch,
                               req.isPrefetch(), now, req.row_outcome});
    }

    void
    dramPrefetchDropped(const Request &req, Cycle now) override
    {
        drops.push_back({req.line_addr, req.was_prefetch,
                         req.isPrefetch(), now, req.row_outcome});
    }

    std::vector<Event> completions;
    std::vector<Event> drops;
};

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : channel_(timing_, 8), map_(geometry_),
          tracker_(2, accuracyConfig())
    {
    }

    static AccuracyConfig
    accuracyConfig()
    {
        AccuracyConfig c;
        c.interval = 1000000; // effectively static during a test
        c.initial_accuracy = 1.0;
        return c;
    }

    MemoryController
    makeController(const SchedulerConfig &config)
    {
        return MemoryController(config, channel_, tracker_, handler_, 2);
    }

    /** Address of line (bank, row, col) via the inverse map. */
    Addr
    addrFor(std::uint32_t bank, std::uint64_t row, std::uint32_t col = 0)
    {
        dram::DramCoord coord;
        coord.channel = 0;
        coord.bank = bank;
        coord.row = row;
        coord.col = col;
        return map_.unmap(coord);
    }

    bool
    enqueue(MemoryController &ctrl, Addr addr, bool prefetch, Cycle now,
            CoreId core = 0)
    {
        return ctrl.enqueueRead(map_.map(addr), lineAlign(addr), core,
                                0x400,
                                prefetch ? RequestClass::Prefetch
                                         : RequestClass::DemandRead,
                                now);
    }

    /**
     * Tick the controller forward (time never rewinds across calls)
     * until @p completions have been observed or @p cycles more cycles
     * elapse.
     */
    void
    runUntil(MemoryController &ctrl, Cycle cycles,
             std::size_t completions)
    {
        const Cycle end = now_ + cycles;
        for (; now_ <= end; ++now_) {
            ctrl.tick(now_);
            if (handler_.completions.size() >= completions) {
                ++now_;
                return;
            }
        }
    }

    Cycle now_ = 0;

    dram::TimingParams timing_;
    dram::Geometry geometry_;
    dram::Channel channel_;
    dram::AddressMap map_;
    AccuracyTracker tracker_;
    RecordingHandler handler_;
};

TEST_F(ControllerTest, SingleReadCompletes)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    const Addr a = addrFor(0, 5);
    ASSERT_TRUE(enqueue(ctrl, a, false, 0));
    EXPECT_TRUE(ctrl.hasRead(lineAlign(a)));
    runUntil(ctrl, 10000, 1);
    ASSERT_EQ(handler_.completions.size(), 1u);
    EXPECT_EQ(handler_.completions[0].line, lineAlign(a));
    // Bank was closed: ACT + RD, no precharge -> Closed outcome.
    EXPECT_EQ(handler_.completions[0].outcome,
              Request::RowOutcome::Closed);
    EXPECT_FALSE(ctrl.hasRead(lineAlign(a)));
    EXPECT_EQ(ctrl.stats().demand_reads, 1u);
}

TEST_F(ControllerTest, RowHitServedBeforeOlderConflict)
{
    // FR-FCFS: open row 1 in bank 0 by completing a first request, then
    // enqueue an older conflict (row 2) and a younger hit (row 1).
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::FrFcfs;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), false, 0));
    runUntil(ctrl, 10000, 1);
    ASSERT_EQ(handler_.completions.size(), 1u);
    const Cycle t0 = handler_.completions[0].at;

    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 2, 0), false, t0));     // conflict
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 1), false, t0 + 1)); // hit
    runUntil(ctrl, t0 + 20000, 3);
    ASSERT_EQ(handler_.completions.size(), 3u);
    EXPECT_EQ(handler_.completions[1].line, lineAlign(addrFor(0, 1, 1)));
    EXPECT_EQ(handler_.completions[1].outcome, Request::RowOutcome::Hit);
    EXPECT_EQ(handler_.completions[2].line, lineAlign(addrFor(0, 2, 0)));
    EXPECT_EQ(handler_.completions[2].outcome,
              Request::RowOutcome::Conflict);
}

TEST_F(ControllerTest, DemandFirstPrefersConflictDemandOverHitPrefetch)
{
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::DemandFirst;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), false, 0));
    runUntil(ctrl, 10000, 1);
    const Cycle t0 = handler_.completions[0].at;

    // Older row-hit prefetch vs younger row-conflict demand.
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 1), true, t0));
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 2, 0), false, t0 + 1));
    runUntil(ctrl, t0 + 30000, 3);
    ASSERT_EQ(handler_.completions.size(), 3u);
    EXPECT_EQ(handler_.completions[1].line, lineAlign(addrFor(0, 2, 0)));
    EXPECT_FALSE(handler_.completions[1].was_prefetch);
}

TEST_F(ControllerTest, PromotionClearsPrefetchBit)
{
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::DemandFirst;
    auto ctrl = makeController(cfg);
    const Addr a = addrFor(3, 9);
    ASSERT_TRUE(enqueue(ctrl, a, true, 0));
    EXPECT_TRUE(ctrl.promote(lineAlign(a), 0));
    EXPECT_FALSE(ctrl.promote(lineAlign(a), 0)); // already a demand
    runUntil(ctrl, 10000, 1);
    ASSERT_EQ(handler_.completions.size(), 1u);
    EXPECT_TRUE(handler_.completions[0].was_prefetch);
    EXPECT_FALSE(handler_.completions[0].still_prefetch);
    EXPECT_EQ(ctrl.stats().promotions, 1u);
    // Promoted prefetches are serviced (and counted) as demands.
    EXPECT_EQ(ctrl.stats().demand_reads, 1u);
    EXPECT_EQ(ctrl.stats().prefetch_reads, 0u);
}

TEST_F(ControllerTest, PromoteUnknownLineReturnsFalse)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    EXPECT_FALSE(ctrl.promote(0x123440, 0));
}

TEST_F(ControllerTest, ReadForwardedFromWriteQueue)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    const Addr a = addrFor(1, 4);
    ctrl.enqueueWrite(map_.map(a), lineAlign(a), 0, 0);
    ASSERT_TRUE(enqueue(ctrl, a, false, 0));
    runUntil(ctrl, 1000, 1);
    ASSERT_EQ(handler_.completions.size(), 1u);
    EXPECT_EQ(ctrl.stats().forwarded_reads, 1u);
    // Forwarded reads never touch the DRAM read path.
    EXPECT_EQ(ctrl.stats().demand_reads, 0u);
}

TEST_F(ControllerTest, WriteCoalescing)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    const Addr a = addrFor(1, 4);
    ctrl.enqueueWrite(map_.map(a), lineAlign(a), 0, 0);
    ctrl.enqueueWrite(map_.map(a), lineAlign(a), 0, 5);
    EXPECT_EQ(ctrl.writeQueueSize(), 1u);
}

TEST_F(ControllerTest, WritesDrainWhenIdle)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    for (std::uint32_t i = 0; i < 4; ++i) {
        const Addr a = addrFor(i, 2);
        ctrl.enqueueWrite(map_.map(a), lineAlign(a), 0, 0);
    }
    for (Cycle t = 0; t < 5000; ++t)
        ctrl.tick(t);
    EXPECT_EQ(ctrl.writeQueueSize(), 0u);
    EXPECT_EQ(ctrl.stats().writes, 4u);
}

TEST_F(ControllerTest, ApdDropsStalePrefetch)
{
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::Aps;
    cfg.apd_enabled = true;
    auto ctrl = makeController(cfg);

    // Make core 0 inaccurate: threshold becomes 100 cycles.
    AccuracyConfig ac;
    ac.interval = 10;
    ac.min_samples = 1;
    AccuracyTracker bad_tracker(2, ac);
    for (int i = 0; i < 10; ++i)
        bad_tracker.onPrefetchSent(0);
    bad_tracker.tick(10);
    MemoryController ctrl2(cfg, channel_, bad_tracker, handler_, 2);

    // Fill the bank with older demands so the prefetch cannot issue,
    // then let it age past the 100-cycle drop threshold.
    for (std::uint32_t col = 0; col < 8; ++col) {
        ASSERT_TRUE(ctrl2.enqueueRead(map_.map(addrFor(0, 1, col)),
                                      lineAlign(addrFor(0, 1, col)), 1,
                                      0, RequestClass::DemandRead, 0));
    }
    const Addr pf = addrFor(0, 2, 0);
    ASSERT_TRUE(ctrl2.enqueueRead(map_.map(pf), lineAlign(pf), 0, 0,
                                  RequestClass::Prefetch, 0));
    for (Cycle t = 0; t < 5000; ++t)
        ctrl2.tick(t);
    ASSERT_EQ(handler_.drops.size(), 1u);
    EXPECT_EQ(handler_.drops[0].line, lineAlign(pf));
    EXPECT_EQ(ctrl2.stats().prefetches_dropped, 1u);
}

TEST_F(ControllerTest, ApdDropsEachPrefetchAtItsFirstDueScan)
{
    // APD oracle at the controller level. With all four drop thresholds
    // equal, every prefetch's drop deadline is arrival + (T/q + 1)*q,
    // whatever its core's accuracy. A prefetch is never dropped before
    // its deadline, and has left the queue -- column issued, promoted or
    // dropped -- by the first APD scan at or after it. Prefetches arrive
    // only in odd windows of kWindow cycles, far longer than a deadline,
    // so each window's first prefetch arrives after scans that found no
    // prefetch queued.
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::DemandFirst; // demands hold prefetches
    cfg.apd_enabled = true;
    cfg.drop_thresholds = {250, 250, 250, 250};
    auto ctrl = makeController(cfg);

    const Cycle q = cfg.age_quantum;
    const Cycle delay = (250 / q + 1) * q;
    const Cycle period = timing_.cpu_per_dram_cycle;
    // A read's data arrives this long after its column command.
    const Cycle read_latency = timing_.toCpu(timing_.tCL + timing_.tBURST);

    struct Prefetch
    {
        Addr line;
        Cycle deadline;
        Cycle promoted = kNeverCycle;
    };
    std::vector<Prefetch> prefetches;
    // APD scans at the first DRAM edge at or after each age quantum.
    std::vector<Cycle> scans;
    Cycle next_scan = 0;
    Rng rng(11);
    const auto pick = [&](std::uint64_t n) {
        return static_cast<std::uint32_t>(rng.nextBelow(n));
    };
    constexpr Cycle kWindow = 2000;
    constexpr Cycle kEnd = 13 * kWindow; // the last window drains
    for (Cycle now = 0; now < kEnd; ++now) {
        // Core 1's demands keep banks 0-3 busy on rows 0-3; every
        // prefetch has a row of its own.
        if (rng.chance(0.04)) {
            const Addr a = addrFor(pick(4), pick(4), pick(8));
            if (!ctrl.hasRead(lineAlign(a)))
                enqueue(ctrl, a, false, now, 1);
        }
        if ((now / kWindow) % 2 == 1 && rng.chance(0.02)) {
            const Addr a = addrFor(pick(8), 100 + prefetches.size());
            if (enqueue(ctrl, a, true, now))
                prefetches.push_back({lineAlign(a), now + delay});
        }
        if (!prefetches.empty() && rng.chance(0.01)) {
            Prefetch &p = prefetches[pick(prefetches.size())];
            if (ctrl.promote(p.line, now))
                p.promoted = now;
        }
        ctrl.tick(now);
        if (now % period == 0 && now >= next_scan) {
            scans.push_back(now);
            next_scan = now + q;
        }
    }

    std::size_t dropped = 0;
    std::size_t promoted = 0;
    std::size_t serviced = 0;
    for (const Prefetch &p : prefetches) {
        const auto due = std::lower_bound(scans.begin(), scans.end(),
                                          p.deadline);
        ASSERT_NE(due, scans.end());
        const auto line_is = [&](const RecordingHandler::Event &e) {
            return e.line == p.line;
        };
        const auto drop = std::find_if(handler_.drops.begin(),
                                       handler_.drops.end(), line_is);
        if (drop != handler_.drops.end()) {
            EXPECT_GE(drop->at, p.deadline)
                << "prefetch dropped before its deadline";
            EXPECT_EQ(drop->at, *due)
                << "prefetch not dropped at its first due scan";
            ++dropped;
            continue;
        }
        if (p.promoted <= *due) {
            ++promoted;
            continue;
        }
        const auto done =
            std::find_if(handler_.completions.begin(),
                         handler_.completions.end(), line_is);
        ASSERT_NE(done, handler_.completions.end())
            << "prefetch neither serviced, promoted nor dropped";
        EXPECT_LT(done->at - read_latency, *due)
            << "prefetch still queued at its first due scan";
        ++serviced;
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(promoted, 0u);
    EXPECT_GT(serviced, 0u);
}

TEST_F(ControllerTest, BufferFullRejectsAndCounts)
{
    SchedulerConfig cfg;
    cfg.request_buffer_size = 4;
    auto ctrl = makeController(cfg);
    for (std::uint32_t i = 0; i < 4; ++i)
        ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, i), false, 0));
    EXPECT_TRUE(ctrl.readBufferFull());
    EXPECT_FALSE(enqueue(ctrl, addrFor(0, 1, 5), true, 0));
    EXPECT_FALSE(enqueue(ctrl, addrFor(0, 1, 6), false, 0));
    EXPECT_EQ(ctrl.stats().prefetches_rejected_full, 1u);
    EXPECT_EQ(ctrl.stats().demands_rejected_full, 1u);
}

TEST_F(ControllerTest, PrefetchSentCountsTowardPsc)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    EXPECT_EQ(tracker_.totalSent(0), 0u);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), true, 0));
    EXPECT_EQ(tracker_.totalSent(0), 1u);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 1), false, 0));
    EXPECT_EQ(tracker_.totalSent(0), 1u); // demands don't count
}

TEST_F(ControllerTest, ClosedRowPolicyAutoPrecharges)
{
    SchedulerConfig cfg;
    cfg.row_policy = RowPolicy::Closed;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 7, 0), false, 0));
    runUntil(ctrl, 10000, 1);
    ASSERT_EQ(handler_.completions.size(), 1u);
    // No same-row request remained, so the row must have been closed.
    EXPECT_EQ(channel_.openRow(0), dram::kNoOpenRow);
}

TEST_F(ControllerTest, OpenRowPolicyKeepsRowOpen)
{
    SchedulerConfig cfg;
    cfg.row_policy = RowPolicy::Open;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 7, 0), false, 0));
    runUntil(ctrl, 10000, 1);
    EXPECT_EQ(channel_.openRow(0), 7u);
}

TEST_F(ControllerTest, PromotionPreventsDrop)
{
    // A demand-matched (promoted) prefetch must never be dropped by APD
    // no matter how long it lingers.
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::Aps;
    cfg.apd_enabled = true;

    AccuracyConfig ac;
    ac.interval = 10;
    ac.min_samples = 1;
    AccuracyTracker bad_tracker(2, ac);
    for (int i = 0; i < 10; ++i)
        bad_tracker.onPrefetchSent(0);
    bad_tracker.tick(10);
    MemoryController ctrl(cfg, channel_, bad_tracker, handler_, 2);

    // Keep the bank permanently contended with another core's demands.
    for (std::uint32_t col = 0; col < 8; ++col) {
        ASSERT_TRUE(ctrl.enqueueRead(map_.map(addrFor(0, 1, col)),
                                     lineAlign(addrFor(0, 1, col)), 1, 0,
                                     RequestClass::DemandRead, 0));
    }
    const Addr pf = addrFor(0, 2, 0);
    ASSERT_TRUE(ctrl.enqueueRead(map_.map(pf), lineAlign(pf), 0, 0,
                                 RequestClass::Prefetch, 0));
    ASSERT_TRUE(ctrl.promote(lineAlign(pf), 1));
    for (Cycle t = 0; t < 20000; ++t)
        ctrl.tick(t);
    EXPECT_TRUE(handler_.drops.empty());
    // The promoted request was eventually serviced as a demand.
    bool found = false;
    for (const auto &done : handler_.completions)
        found = found || done.line == lineAlign(pf);
    EXPECT_TRUE(found);
}

TEST_F(ControllerTest, StrictClassBlockingHoldsPrefetchBack)
{
    // Under demand-first, a prefetch to a bank may not issue while a
    // demand to the same bank is queued -- even when the demand is not
    // timing-ready and the prefetch is (paper Section 1's definition).
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::DemandFirst;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), false, 0));
    runUntil(ctrl, 10000, 1);

    // Row 1 open. Prefetch row-hit + conflicting demand, same bank.
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 1), true, now_));
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 2, 0), false, now_));
    runUntil(ctrl, 30000, 3);
    ASSERT_EQ(handler_.completions.size(), 3u);
    EXPECT_EQ(handler_.completions[1].line, lineAlign(addrFor(0, 2, 0)));
    // The prefetch was serviced only afterwards -- as a row conflict.
    EXPECT_EQ(handler_.completions[2].line, lineAlign(addrFor(0, 1, 1)));
    EXPECT_EQ(handler_.completions[2].outcome,
              Request::RowOutcome::Conflict);
}

TEST_F(ControllerTest, ClassBlockingIsPerBank)
{
    // A prefetch to a *different* bank proceeds while a demand waits on
    // its own bank.
    SchedulerConfig cfg;
    cfg.kind = SchedPolicyKind::DemandFirst;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), false, 0));
    ASSERT_TRUE(enqueue(ctrl, addrFor(1, 5, 0), true, 0));
    runUntil(ctrl, 10000, 2);
    ASSERT_EQ(handler_.completions.size(), 2u);
    // Both complete close together: the prefetch was not serialized
    // behind the other bank's demand by more than pipeline effects.
    const Cycle gap = handler_.completions[1].at -
                      handler_.completions[0].at;
    EXPECT_LT(gap, 60u);
}

TEST_F(ControllerTest, ServiceTimeAccountedInStats)
{
    SchedulerConfig cfg;
    auto ctrl = makeController(cfg);
    ASSERT_TRUE(enqueue(ctrl, addrFor(0, 1, 0), false, 0));
    runUntil(ctrl, 10000, 1);
    const Cycle at = handler_.completions[0].at;
    EXPECT_EQ(ctrl.stats().read_service_cycles_sum, at);
}

} // namespace
} // namespace padc::memctrl
