/**
 * @file
 * A/B equivalence of the event-driven main loop (DESIGN.md section 11):
 * the same seeded mix run by one System::run call and stepped one cycle
 * at a time must be bit-identical -- every exported statistic, every
 * core-model and cache counter (the ones a parked core's skipped
 * bounces replay), every interval time-series row, every
 * request-lifecycle trace event, and the RunStatus. The stepped
 * reference calls System::run with a one-cycle cap until the run
 * converges: each call starts with every core's cached bound cleared,
 * so every core ticks, and caps its jump at the next cycle, so the loop
 * lands on every cycle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "telemetry/profiler.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace padc::sim
{
namespace
{

/** Everything one run can externally show, captured for comparison. */
struct RunArtifacts
{
    StatSet stats;
    RunStatus status;
    std::vector<telemetry::IntervalRow> rows;
    std::uint64_t rows_pushed = 0;
    std::vector<telemetry::TraceEvent> events;
    std::uint64_t events_seen = 0;
    std::uint64_t issue_retries = 0; ///< summed over the cores
    telemetry::WallProfiler::Snapshot loop; ///< the run's loop work
};

void
addCacheStats(StatSet &stats, const std::string &prefix,
              const cache::CacheStats &cs)
{
    stats.add(prefix + "hits", static_cast<double>(cs.hits));
    stats.add(prefix + "misses", static_cast<double>(cs.misses));
    stats.add(prefix + "fills", static_cast<double>(cs.fills));
    stats.add(prefix + "evictions", static_cast<double>(cs.evictions));
    stats.add(prefix + "dirty_evictions",
              static_cast<double>(cs.dirty_evictions));
    stats.add(prefix + "useless_evictions",
              static_cast<double>(cs.useless_evictions));
}

/**
 * The live counters exportStats() leaves out: every core model's stats
 * (exportStats() reports the frozen per-core results) and every L1 and
 * L2 cache's.
 */
void
addModelStats(StatSet &stats, const System &system)
{
    const SystemConfig &cfg = system.config();
    for (CoreId i = 0; i < cfg.num_cores; ++i) {
        const std::string prefix = "model" + std::to_string(i) + ".";
        const core::CoreStats &cs = system.coreModel(i).stats();
        stats.add(prefix + "instructions",
                  static_cast<double>(cs.instructions));
        stats.add(prefix + "loads", static_cast<double>(cs.loads));
        stats.add(prefix + "stores", static_cast<double>(cs.stores));
        stats.add(prefix + "load_stall_cycles",
                  static_cast<double>(cs.load_stall_cycles));
        stats.add(prefix + "mem_ops_issued",
                  static_cast<double>(cs.mem_ops_issued));
        stats.add(prefix + "issue_retries",
                  static_cast<double>(cs.issue_retries));
        stats.add(prefix + "runahead_episodes",
                  static_cast<double>(cs.runahead_episodes));
        stats.add(prefix + "runahead_ops_issued",
                  static_cast<double>(cs.runahead_ops_issued));
        addCacheStats(stats, "l1cache" + std::to_string(i) + ".",
                      system.l1(i).stats());
    }
    const std::uint32_t num_l2 = cfg.shared_l2 ? 1 : cfg.num_cores;
    for (std::uint32_t i = 0; i < num_l2; ++i) {
        addCacheStats(stats, "l2cache" + std::to_string(i) + ".",
                      system.l2(i).stats());
    }
}

/**
 * How a run lays its traces out: @p mix's synthetic profiles, one per
 * core, or AloneIpcCache's alone layout -- mix[0] on core 0 and the
 * spin op of its idle cores (one load to a private line every 1000
 * compute instructions) on the others.
 */
enum class Layout
{
    Mix,
    Alone,
};

/**
 * Run @p mix under @p cfg with full telemetry and capture the output:
 * in one System::run call, or, when @p reference is set, stepped one
 * cycle per call (see the file comment).
 */
RunArtifacts
runOnce(SystemConfig cfg, const workload::Mix &mix, bool reference,
        std::uint64_t instructions, std::uint64_t warmup,
        Layout layout = Layout::Mix, std::uint64_t seed = 0)
{
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = true;
    tcfg.trace = true;
    telemetry::Collector collector(tcfg);
    cfg.collector = &collector;

    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        if (layout == Layout::Alone && c > 0) {
            core::TraceOp spin;
            spin.compute_gap = 1000;
            spin.addr = (static_cast<Addr>(c) << 40) | 0x100;
            spin.pc = 0x500000 + c * 16;
            traces.push_back(std::make_unique<core::VectorTrace>(
                std::vector<core::TraceOp>{spin}));
        } else {
            traces.push_back(std::make_unique<workload::SyntheticTrace>(
                workload::traceParamsFor(mix, c, seed)));
        }
        sources.push_back(traces.back().get());
    }

    System system(cfg, std::move(sources));
    RunArtifacts out;
    auto &profiler = telemetry::WallProfiler::instance();
    profiler.reset();
    constexpr std::uint64_t cap = 30000000;
    if (reference) {
        // do-while: a default RunStatus reads as converged.
        do {
            out.status = system.run(instructions, 1, warmup);
        } while (!out.status.converged() && system.cycles() < cap);
    } else {
        out.status = system.run(instructions, cap, warmup);
    }
    out.loop = profiler.snapshot();
    out.stats = system.exportStats();
    addModelStats(out.stats, system);
    for (CoreId i = 0; i < cfg.num_cores; ++i)
        out.issue_retries += system.coreModel(i).stats().issue_retries;
    out.rows = collector.sampler()->rows();
    out.rows_pushed = collector.sampler()->pushed();
    out.events = collector.trace()->events();
    out.events_seen = collector.trace()->seen();
    return out;
}

/** Field-by-field row comparison (no memcmp: structs have padding). */
void
expectSameRows(const std::vector<telemetry::IntervalRow> &a,
               const std::vector<telemetry::IntervalRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("interval row " + std::to_string(i));
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].core, b[i].core);
        EXPECT_EQ(a[i].par, b[i].par);
        EXPECT_EQ(a[i].psc, b[i].psc);
        EXPECT_EQ(a[i].puc, b[i].puc);
        EXPECT_EQ(a[i].drop_threshold, b[i].drop_threshold);
        EXPECT_EQ(a[i].sent, b[i].sent);
        EXPECT_EQ(a[i].used, b[i].used);
        EXPECT_EQ(a[i].dropped, b[i].dropped);
        EXPECT_EQ(a[i].bus_util, b[i].bus_util);
        EXPECT_EQ(a[i].row_hit_rate, b[i].row_hit_rate);
        EXPECT_EQ(a[i].read_queue, b[i].read_queue);
        EXPECT_EQ(a[i].write_queue, b[i].write_queue);
    }
}

void
expectSameEvents(const std::vector<telemetry::TraceEvent> &a,
                 const std::vector<telemetry::TraceEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("trace event " + std::to_string(i));
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].aux, b[i].aux);
        EXPECT_EQ(a[i].row, b[i].row);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].core, b[i].core);
        EXPECT_EQ(a[i].channel, b[i].channel);
        EXPECT_EQ(a[i].flags, b[i].flags);
        EXPECT_EQ(a[i].bank, b[i].bank);
    }
}

/** Assert every artifact of a run and its stepped reference is identical. */
void
expectSameArtifacts(const RunArtifacts &run, const RunArtifacts &ref)
{
    EXPECT_EQ(run.status.truncated_mask, ref.status.truncated_mask);
    EXPECT_EQ(run.status.cores_completed, ref.status.cores_completed);
    EXPECT_EQ(run.status.cores_truncated, ref.status.cores_truncated);
    EXPECT_EQ(run.status.cycles, ref.status.cycles);

    const auto &ea = run.stats.entries();
    const auto &eb = ref.stats.entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].first, eb[i].first) << "stat name " << i;
        EXPECT_EQ(ea[i].second, eb[i].second) << "stat " << ea[i].first;
    }

    EXPECT_EQ(run.rows_pushed, ref.rows_pushed);
    expectSameRows(run.rows, ref.rows);
    EXPECT_EQ(run.events_seen, ref.events_seen);
    expectSameEvents(run.events, ref.events);
}

/**
 * Run once and stepped, and assert every artifact is identical.
 * @return the single run's artifacts, so a case can check what it
 *         exercised: parked cores (issue retries, equal to the stepped
 *         run's when the artifacts match) or skipped cycles
 */
RunArtifacts
expectEquivalent(const SystemConfig &cfg, const workload::Mix &mix,
                 std::uint64_t instructions = 8000,
                 std::uint64_t warmup = 1000, Layout layout = Layout::Mix,
                 std::uint64_t seed = 0)
{
    RunArtifacts run =
        runOnce(cfg, mix, false, instructions, warmup, layout, seed);
    const RunArtifacts ref =
        runOnce(cfg, mix, true, instructions, warmup, layout, seed);
    expectSameArtifacts(run, ref);
    return run;
}

SystemConfig
padcConfig(std::uint32_t cores)
{
    SystemConfig cfg = applyPolicy(SystemConfig::baseline(cores),
                                   PolicySetup::Padc);
    return cfg;
}

TEST(EventSkipTest, PadcTwoCoreApdOn)
{
    // The full mechanism stack: APS + APD on a mixed 2-core load with
    // an idle-heavy and a saturated application sharing the channel.
    expectEquivalent(padcConfig(2), {"mcf_06", "libquantum_06"});
}

TEST(EventSkipTest, DemandFirstRunahead)
{
    // Rigid scheduler (no shard wake maintenance -> conservative
    // degradation) plus the runahead core model's extra event sources.
    SystemConfig cfg = applyPolicy(SystemConfig::baseline(1),
                                   PolicySetup::DemandFirst);
    cfg.core.runahead = true;
    expectEquivalent(cfg, {"mcf_06"});
}

TEST(EventSkipTest, ClosedRowWithRefresh)
{
    // Refresh deadlines and closed-row precharges are event sources of
    // their own; tREFI is shortened so a short run sees many refreshes.
    SystemConfig cfg = padcConfig(1);
    cfg.sched.row_policy = RowPolicy::Closed;
    cfg.dram.timing.refresh_enabled = true;
    cfg.dram.timing.tREFI = 520;
    expectEquivalent(cfg, {"libquantum_06"});
}

TEST(EventSkipTest, PadcFourCoreMidDramCycleAccuracyFlips)
{
    // An accuracy interval that is not a multiple of the DRAM clock
    // flips the accurate-core mask on a cycle whose controller tick
    // returns before scheduling, and the next-event bound is taken right
    // after it: the bound must not reuse scheduler state derived under
    // the old mask. Four cores mixing accurate and inaccurate
    // prefetchers keep the mask moving.
    SystemConfig cfg = padcConfig(4);
    cfg.sched.accuracy.interval = 2003;
    ASSERT_NE(cfg.sched.accuracy.interval %
                  cfg.dram.timing.cpu_per_dram_cycle,
              0u);
    expectEquivalent(cfg, {"libquantum_06", "omnetpp_06", "swim_00",
                           "milc_06"});
}

TEST(EventSkipTest, SharedL2WakesEveryParkedCore)
{
    // One MSHR file serves all four cores, so a release must unpark
    // every core it bounced, not just the core whose miss completed.
    SystemConfig cfg = padcConfig(4);
    cfg.shared_l2 = true;
    cfg.l2.size_bytes = 2 * 1024 * 1024;
    cfg.l2.ways = 16;
    EXPECT_GT(expectEquivalent(cfg, {"libquantum_06", "swim_00", "milc_06",
                                     "lbm_06"})
                  .issue_retries,
              0u);
}

TEST(EventSkipTest, FdpCountsReplayedDemandAccesses)
{
    // FDP's interval evaluation reads the demand-access count a parked
    // core's skipped bounces replay, and its decisions feed back into
    // the prefetcher, so a miscounted replay changes later traffic.
    SystemConfig cfg = applyPolicy(SystemConfig::baseline(2),
                                   PolicySetup::ApsOnly);
    cfg.fdp_enabled = true;
    EXPECT_GT(expectEquivalent(cfg, {"libquantum_06", "swim_00"})
                  .issue_retries,
              0u);
}

TEST(EventSkipTest, TinyMshrFileParksOften)
{
    // Four MSHR entries per L2 keep the file full most of the time.
    SystemConfig cfg = padcConfig(2);
    cfg.mshr_per_l2 = 4;
    EXPECT_GT(expectEquivalent(cfg, {"mcf_06", "libquantum_06"})
                  .issue_retries,
              0u);
}

TEST(EventSkipTest, AloneLayoutGoalsInsideComputeStretches)
{
    // The alone-IPC layout: one application beside three spin cores
    // whose compute stretches are leapt over. The warm-up and the
    // target are not multiples of the retire width, so both fall inside
    // a stretch, and each core's crossing tick must still be real.
    const SystemConfig cfg = applyPolicy(SystemConfig::baseline(4),
                                         PolicySetup::DemandFirst);
    ASSERT_NE(1003 % cfg.core.retire_width, 0u);
    const RunArtifacts run =
        expectEquivalent(cfg, workload::Mix(4, "wrf_06"), 8001, 1003,
                         Layout::Alone, 3);
    // Not vacuous: the spin cores' stretches dominate the run.
    EXPECT_GT(run.loop.skipped_cycles * 2, run.status.cycles);
    EXPECT_EQ(run.loop.landed_cycles + run.loop.skipped_cycles,
              run.status.cycles);
}

TEST(EventSkipTest, ComputeHeavyMixGoalsInsideComputeStretches)
{
    // Four compute-heavy applications under PADC: stretches end at
    // memory ops, completions and unparks on every core, with goals
    // off the retire-width grid.
    expectEquivalent(padcConfig(4),
                     {"ammp_00", "xalancbmk_06", "povray_06", "gamess_06"},
                     8001, 1003);
}

TEST(EventSkipTest, JumpsActuallyTaken)
{
    // Guard against the suite passing vacuously: on an idle-heavy
    // single-core mix the event loop must really take jumps.
    const auto snap = runOnce(padcConfig(1), {"mcf_06"}, false, 8000, 0).loop;
    EXPECT_GT(snap.event_jumps, 0u);
    EXPECT_GT(snap.skipped_cycles, 0u);
    EXPECT_GE(snap.skipped_cycles, snap.event_jumps);
}

TEST(EventSkipTest, ReferenceLandsOnEveryCycle)
{
    // The stepped reference must stay a cycle-by-cycle loop: it lands
    // on every cycle and ticks every core there, so a change to run()
    // cannot quietly turn it into a skipping loop.
    const RunArtifacts ref =
        runOnce(padcConfig(2), {"mcf_06", "wrf_06"}, true, 4000, 0);
    EXPECT_EQ(ref.loop.event_jumps, 0u);
    EXPECT_EQ(ref.loop.landed_cycles, ref.status.cycles);
    EXPECT_EQ(ref.loop.core_ticks, 2 * ref.status.cycles);
}

} // namespace
} // namespace padc::sim
