/**
 * @file
 * Golden equivalence tests: the production MemoryController must make
 * exactly the same decision as the naive ReferenceController
 * (reference_controller.hh) every cycle, for every policy configuration.
 *
 * Two complete controller stacks (separate Channel, AccuracyTracker and
 * handler) receive an identical randomized stimulus -- enqueues of
 * demands/prefetches/writebacks over a few rows of every bank (so
 * requests to one bank keep conflicting: precharges, activates and
 * row-hit/row-miss splits all occur), promotions, prefetch-used events
 * that push cores below and back above the promotion threshold across
 * accuracy intervals, and interval ticks -- one stack around each
 * controller. The test then compares the complete DRAM command streams
 * (production's trace events against the reference's command log), the
 * completion/drop event sequences, and every statistic. A second
 * instantiation turns periodic refresh on, which closes every bank
 * between scheduling rounds; a third lengthens the data burst past
 * tCCD, so the data bus binds column commands.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/controller.hh"
#include "reference_controller.hh"
#include "telemetry/telemetry.hh"

namespace padc::memctrl
{
namespace
{

using test::CommandRecord;
using test::ReferenceController;

/** Records completions and drops in arrival order, comparably. */
class LoggingHandler : public ResponseHandler
{
  public:
    struct Event
    {
        Addr line;
        bool drop;
        bool was_prefetch;
        bool still_prefetch;
        Cycle at;

        bool operator==(const Event &other) const = default;
    };

    void
    dramReadComplete(const Request &req, Cycle now) override
    {
        events.push_back({req.line_addr, false, req.was_prefetch,
                          req.isPrefetch(), now});
    }

    void
    dramPrefetchDropped(const Request &req, Cycle now) override
    {
        events.push_back({req.line_addr, true, req.was_prefetch,
                          req.isPrefetch(), now});
    }

    std::vector<Event> events;
};

/**
 * One controller plus everything it owns, for lockstep driving.
 * Production traces its commands; the reference logs them.
 */
template <typename Controller>
struct Stack
{
    Stack(const SchedulerConfig &config, std::uint32_t num_cores,
          const dram::TimingParams &timing_params = {})
        : timing(timing_params), channel(timing, 8), map(geometry),
          tracker(num_cores, config.accuracy),
          ctrl(config, channel, tracker, handler, num_cores)
    {
        if constexpr (std::is_same_v<Controller, MemoryController>)
            ctrl.setTrace(&trace, 0);
        else
            ctrl.setCommandLog(&commands);
    }

    /**
     * The commands issued so far. Production's trace events for them
     * are reduced to records as they arrive; the others are skipped.
     */
    const std::vector<CommandRecord> &
    issued()
    {
        using telemetry::EventKind;
        const auto &events = trace.events();
        for (; traced < events.size(); ++traced) {
            const telemetry::TraceEvent &e = events[traced];
            if (e.kind == EventKind::CmdPrecharge ||
                e.kind == EventKind::CmdActivate ||
                e.kind == EventKind::CmdRead ||
                e.kind == EventKind::CmdWrite) {
                commands.push_back(
                    {e.cycle, e.kind,
                     (e.flags & telemetry::TraceEvent::kWrite) != 0, e.bank,
                     e.row, e.addr});
            }
        }
        return commands;
    }

    dram::TimingParams timing;
    dram::Geometry geometry;
    dram::Channel channel;
    dram::AddressMap map;
    AccuracyTracker tracker;
    LoggingHandler handler;
    Controller ctrl;
    telemetry::TraceBuffer trace{1u << 20};
    std::size_t traced = 0; ///< trace events already reduced
    std::vector<CommandRecord> commands;
};

void
expectStatsEqual(const ControllerStats &a, const ControllerStats &b)
{
    EXPECT_EQ(a.demand_reads, b.demand_reads);
    EXPECT_EQ(a.prefetch_reads, b.prefetch_reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.read_row_hits, b.read_row_hits);
    EXPECT_EQ(a.read_row_closed, b.read_row_closed);
    EXPECT_EQ(a.read_row_conflicts, b.read_row_conflicts);
    EXPECT_EQ(a.demand_row_hits, b.demand_row_hits);
    EXPECT_EQ(a.prefetches_dropped, b.prefetches_dropped);
    EXPECT_EQ(a.prefetches_rejected_full, b.prefetches_rejected_full);
    EXPECT_EQ(a.demands_rejected_full, b.demands_rejected_full);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.forwarded_reads, b.forwarded_reads);
    EXPECT_EQ(a.duplicate_reads, b.duplicate_reads);
    EXPECT_EQ(a.read_queue_occupancy_sum, b.read_queue_occupancy_sum);
    EXPECT_EQ(a.dram_cycles, b.dram_cycles);
    EXPECT_EQ(a.read_service_cycles_sum, b.read_service_cycles_sum);
    for (std::size_t c = 0; c < kRequestClassCount; ++c)
        EXPECT_EQ(a.serviced_by_class[c], b.serviced_by_class[c])
            << "serviced count differs for class "
            << toString(static_cast<RequestClass>(c));
}

/** Accuracy states a run visited, as bitmasks over cores. */
struct AccuracyStates
{
    std::uint64_t ever_inaccurate = 0; ///< fell below the threshold
    std::uint64_t recovered = 0;       ///< then climbed back above it
};

/**
 * Drive reference and production stacks through an identical randomized
 * stimulus and require identical observable behaviour. @p load scales
 * the read and write arrival rates. Merges the accuracy states the
 * cores visited into @p states, for the caller to require both.
 */
void
runEquivalence(SchedulerConfig config, std::uint64_t seed,
               AccuracyStates &states, const dram::TimingParams &timing = {},
               double load = 1.0)
{
    constexpr std::uint32_t kCores = 4;
    constexpr Cycle kDriveCycles = 12000;
    constexpr Cycle kDrainCycles = 8000;

    config.request_buffer_size = 24; // small: exercise rejected-full
    config.write_drain_high = 10;
    config.write_drain_low = 3;
    config.accuracy.interval = 1500; // several interval boundaries
    config.accuracy.min_samples = 4;

    Stack<ReferenceController> ref(config, kCores, timing);
    Stack<MemoryController> opt(config, kCores, timing);

    Rng rng(seed);
    // Small line pool: 4 rows x 6 columns in each of the 8 banks, so row
    // conflicts, duplicate enqueues, promotions and write-queue hits all
    // occur. The default line-interleaved map takes the bank from line
    // bits 0-2, the column from bits 3-8 and the row from the rest.
    auto randomLine = [&] {
        const Addr row = rng.nextBelow(4);
        const Addr col = rng.nextBelow(6);
        const Addr bank = rng.nextBelow(8);
        return lineToAddr((row << 9) | (col << 3) | bank);
    };

    // Bit c of `accurate` is set while core c's prefetches are
    // critical on the reference stack. Every core starts accurate
    // (initial_accuracy is 1).
    const std::uint64_t all_cores = (1ULL << kCores) - 1;
    std::uint64_t accurate = all_cores;
    const auto trackAccuracy = [&] {
        std::uint64_t now_accurate = 0;
        for (CoreId c = 0; c < kCores; ++c) {
            if (ref.tracker.accuracy(c) >= config.promotion_threshold)
                now_accurate |= 1ULL << c;
        }
        states.recovered |= now_accurate & ~accurate;
        states.ever_inaccurate |= ~now_accurate & all_cores;
        accurate = now_accurate;
    };

    for (Cycle now = 0; now < kDriveCycles; ++now) {
        if (rng.chance(0.30 * load)) {
            const Addr addr = randomLine();
            const auto core = static_cast<CoreId>(rng.nextBelow(kCores));
            const RequestClass cls = rng.chance(0.5)
                                         ? RequestClass::Prefetch
                                         : RequestClass::DemandRead;
            const bool a = ref.ctrl.enqueueRead(ref.map.map(addr),
                                                lineAlign(addr), core,
                                                0x400, cls, now);
            const bool b = opt.ctrl.enqueueRead(opt.map.map(addr),
                                                lineAlign(addr), core,
                                                0x400, cls, now);
            ASSERT_EQ(a, b) << "enqueue disagreement at cycle " << now;
        }
        if (rng.chance(0.05 * load)) {
            const Addr addr = randomLine();
            const auto core = static_cast<CoreId>(rng.nextBelow(kCores));
            ref.ctrl.enqueueWrite(ref.map.map(addr), lineAlign(addr), core,
                                  now);
            opt.ctrl.enqueueWrite(opt.map.map(addr), lineAlign(addr), core,
                                  now);
        }
        if (rng.chance(0.04)) {
            const Addr addr = randomLine();
            const bool a = ref.ctrl.promote(lineAlign(addr), now);
            const bool b = opt.ctrl.promote(lineAlign(addr), now);
            ASSERT_EQ(a, b) << "promotion disagreement at cycle " << now;
        }
        if (rng.chance(0.10)) {
            // Used events go only to the cores whose prefetches are
            // useful this accuracy interval: core 0 always, cores 1 and
            // 2 in alternate intervals, core 3 never. So cores fall
            // below the promotion threshold and climb back across
            // intervals, flipping criticality and urgency
            // (expectBothAccuracyStates checks that they do).
            const Cycle phase = now / config.accuracy.interval;
            const auto core = static_cast<CoreId>(
                rng.chance(0.5) ? 0 : 1 + phase % 2);
            ref.tracker.onPrefetchUsed(core);
            opt.tracker.onPrefetchUsed(core);
        }
        ref.tracker.tick(now);
        opt.tracker.tick(now);
        trackAccuracy();
        ref.ctrl.tick(now);
        opt.ctrl.tick(now);
        ASSERT_EQ(ref.issued().size(), opt.issued().size())
            << "issue-count divergence at cycle " << now;
    }
    for (Cycle now = kDriveCycles; now < kDriveCycles + kDrainCycles;
         ++now) {
        ref.tracker.tick(now);
        opt.tracker.tick(now);
        ref.ctrl.tick(now);
        opt.ctrl.tick(now);
    }

    const std::vector<CommandRecord> &want = ref.issued();
    const std::vector<CommandRecord> &got = opt.issued();
    EXPECT_EQ(opt.trace.dropped(), 0u) << "the trace lost commands";
    EXPECT_GT(want.size(), 0u) << "stimulus issued no commands";
    EXPECT_GT(ref.ctrl.stats().read_row_conflicts, 0u)
        << "stimulus made no row conflict";
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(want[i] == got[i])
            << "command " << i << " differs: cycle " << want[i].cycle
            << " vs " << got[i].cycle << ", "
            << telemetry::toString(want[i].kind) << " vs "
            << telemetry::toString(got[i].kind) << ", bank " << want[i].bank
            << " vs " << got[i].bank << ", line 0x" << std::hex
            << want[i].line << " vs 0x" << got[i].line << std::dec;
        if (!(want[i] == got[i]))
            break; // one divergence floods everything after it
    }
    ASSERT_EQ(ref.handler.events.size(), opt.handler.events.size());
    for (std::size_t i = 0; i < ref.handler.events.size(); ++i)
        EXPECT_TRUE(ref.handler.events[i] == opt.handler.events[i])
            << "completion/drop event " << i << " differs";
    expectStatsEqual(ref.ctrl.stats(), opt.ctrl.stats());
}

/** Require that both accuracy states, and a flip back, occurred. */
void
expectBothAccuracyStates(const AccuracyStates &states)
{
    EXPECT_NE(states.ever_inaccurate, 0u)
        << "no core fell below the promotion threshold";
    EXPECT_NE(states.recovered, 0u)
        << "no core climbed back above the promotion threshold";
}

struct Combo
{
    SchedPolicyKind kind;
    bool urgency;
    bool ranking;
    bool apd;
    RowPolicy row;
};

std::string
comboName(const Combo &combo)
{
    std::string name;
    switch (combo.kind) {
      case SchedPolicyKind::FrFcfs: name = "FrFcfs"; break;
      case SchedPolicyKind::DemandFirst: name = "DemandFirst"; break;
      case SchedPolicyKind::PrefetchFirst: name = "PrefetchFirst"; break;
      case SchedPolicyKind::Aps: name = "Aps"; break;
    }
    name += combo.urgency ? "_urg" : "_nourg";
    name += combo.ranking ? "_rank" : "_norank";
    name += combo.apd ? "_apd" : "_noapd";
    name += combo.row == RowPolicy::Closed ? "_closed" : "_open";
    return name;
}

class SchedEquivalence : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SchedEquivalence, DecisionIdentical)
{
    const Combo &combo = GetParam();
    SchedulerConfig config;
    config.kind = combo.kind;
    config.urgency_enabled = combo.urgency;
    config.ranking_enabled = combo.ranking;
    config.apd_enabled = combo.apd;
    config.row_policy = combo.row;
    // Mid-scale threshold so the randomized used-events actually flip
    // cores between accurate and inaccurate during the run.
    config.promotion_threshold = 0.60;

    AccuracyStates states;
    runEquivalence(config,
                   0xC0FFEE ^ static_cast<std::uint64_t>(
                                  combo.kind == SchedPolicyKind::Aps ? 17
                                                                     : 3),
                   states);
    expectBothAccuracyStates(states);
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (const auto kind :
         {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
          SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
        for (const bool urgency : {false, true}) {
            for (const bool ranking : {false, true}) {
                for (const bool apd : {false, true}) {
                    for (const auto row :
                         {RowPolicy::Open, RowPolicy::Closed}) {
                        combos.push_back({kind, urgency, ranking, apd, row});
                    }
                }
            }
        }
    }
    return combos;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedEquivalence,
                         ::testing::ValuesIn(allCombos()),
                         [](const ::testing::TestParamInfo<Combo> &info) {
                             return comboName(info.param);
                         });

/** One case of the refresh and long-burst arms: a policy under one row
    policy, with the default urgency (on), ranking (off) and APD (on). */
struct PolicyRow
{
    SchedPolicyKind kind;
    RowPolicy row;
};

std::vector<PolicyRow>
policyRows()
{
    std::vector<PolicyRow> combos;
    for (const auto kind :
         {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
          SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
        for (const auto row : {RowPolicy::Open, RowPolicy::Closed})
            combos.push_back({kind, row});
    }
    return combos;
}

std::string
policyRowName(const ::testing::TestParamInfo<PolicyRow> &info)
{
    return comboName({info.param.kind, true, false, true, info.param.row});
}

/** The default SchedulerConfig under @p combo's policy and row policy,
    with the mid-scale promotion threshold the stimulus flips cores
    across. */
SchedulerConfig
policyRowConfig(const PolicyRow &combo)
{
    SchedulerConfig config;
    config.kind = combo.kind;
    config.row_policy = combo.row;
    config.promotion_threshold = 0.60;
    return config;
}

class SchedEquivalenceRefresh : public ::testing::TestWithParam<PolicyRow>
{
};

TEST_P(SchedEquivalenceRefresh, DecisionIdentical)
{
    // Refresh precharges every bank outside any scheduled command, so a
    // per-bank scan result cached across it would name a row-hit
    // candidate for a closed bank. A short tREFI puts a refresh every
    // few hundred DRAM cycles of the run, and a light load leaves most
    // banks without a command during the refresh blackout (an activate
    // would rescan the bank and hide a stale cache).
    const PolicyRow &combo = GetParam();
    const SchedulerConfig config = policyRowConfig(combo);
    dram::TimingParams timing;
    timing.refresh_enabled = true;
    timing.tREFI = 520;
    // Several short seeded runs: each refresh only exposes a stale
    // cache when some bank had a queued read at the refresh and nothing
    // else rescanned it before the reference controller would serve it.
    AccuracyStates states;
    for (std::uint64_t run = 0; run < 12 && !HasFailure(); ++run) {
        runEquivalence(config,
                       0x5EF4E5 ^ (run << 8) ^
                           static_cast<std::uint64_t>(combo.kind),
                       states, timing, /*load=*/0.1);
    }
    expectBothAccuracyStates(states);
}

INSTANTIATE_TEST_SUITE_P(Refresh, SchedEquivalenceRefresh,
                         ::testing::ValuesIn(policyRows()), policyRowName);

class SchedEquivalenceLongBurst
    : public ::testing::TestWithParam<PolicyRow>
{
};

TEST_P(SchedEquivalenceLongBurst, DecisionIdentical)
{
    // At the default timing tBURST == tCCD, so the tCCD gate always
    // frees the data bus in time and the data-bus terms of the channel's
    // column ready cycles never bind. A burst twice tCCD makes
    // back-to-back columns wait for the bus, so production's ready
    // cycles meet Channel::canColumn() in the comparison.
    const PolicyRow &combo = GetParam();
    dram::TimingParams timing;
    timing.tBURST = 4;
    AccuracyStates states;
    runEquivalence(policyRowConfig(combo),
                   0xB0B57 ^ static_cast<std::uint64_t>(combo.kind), states,
                   timing);
    expectBothAccuracyStates(states);
}

INSTANTIATE_TEST_SUITE_P(LongBurst, SchedEquivalenceLongBurst,
                         ::testing::ValuesIn(policyRows()), policyRowName);

/** Duplicate enqueues are coalesced, not asserted on (satellite fix). */
TEST(DuplicateEnqueue, CoalescesInsteadOfCorrupting)
{
    SchedulerConfig config;
    config.kind = SchedPolicyKind::Aps;
    Stack<MemoryController> stack(config, 2);

    const Addr addr = lineToAddr(5);
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::Prefetch, 0));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 0u);

    // A duplicate prefetch is absorbed.
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::Prefetch, 1));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 1u);

    // A duplicate demand promotes the outstanding prefetch.
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::DemandRead, 2));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 2u);
    EXPECT_EQ(stack.ctrl.stats().promotions, 1u);
}

} // namespace
} // namespace padc::memctrl
