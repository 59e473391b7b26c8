/**
 * @file
 * End-to-end integration and invariant tests for the assembled system:
 * traffic conservation, P-bit accounting, promotion, policy behaviour,
 * shared-L2 and dual-controller configurations, closed-row operation,
 * refresh, and warm-up windows.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/metrics.hh"
#include "sim/system.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace padc::sim
{
namespace
{

/** Build traces for a mix and run a system; returns it for inspection. */
struct Harness
{
    Harness(SystemConfig config, const workload::Mix &mix,
            std::uint64_t instructions = 20000,
            std::uint64_t warmup = 0)
    {
        for (std::uint32_t c = 0; c < config.num_cores; ++c) {
            traces.push_back(std::make_unique<workload::SyntheticTrace>(
                workload::traceParamsFor(mix, c, 0)));
        }
        std::vector<core::TraceSource *> sources;
        for (auto &t : traces)
            sources.push_back(t.get());
        system = std::make_unique<System>(config, std::move(sources));
        system->run(instructions, 30000000, warmup);
    }

    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    std::unique_ptr<System> system;
};

SystemConfig
padcConfig(std::uint32_t cores)
{
    SystemConfig cfg = SystemConfig::baseline(cores);
    cfg.sched.kind = SchedPolicyKind::Aps;
    cfg.sched.apd_enabled = true;
    return cfg;
}

TEST(SystemTest, CompletesInstructionTarget)
{
    Harness h(padcConfig(1), {"libquantum_06"});
    EXPECT_TRUE(h.system->result(0).done);
    EXPECT_GE(h.system->result(0).core_stats.instructions, 20000u);
    EXPECT_GT(h.system->cycles(), 0u);
}

TEST(SystemTest, TrafficConservation)
{
    // Fills reported to the system must equal reads serviced by the
    // controllers (including forwarded reads, minus nothing else).
    Harness h(padcConfig(1), {"milc_06"}, 40000);
    const auto &ms = h.system->memStats(0);
    const auto &cs = h.system->controller(0).stats();
    EXPECT_EQ(ms.demand_fills + ms.prefetch_fills,
              cs.demand_reads + cs.prefetch_reads + cs.forwarded_reads);
    // Useful prefetches cannot exceed prefetch fills.
    EXPECT_LE(ms.useful_prefetch_fills,
              ms.prefetch_fills + ms.promotions);
}

TEST(SystemTest, AccuracyWithinBounds)
{
    Harness h(padcConfig(1), {"milc_06"}, 40000);
    const auto &res = h.system->result(0);
    EXPECT_LE(res.pref_used, res.pref_sent + 1);
    const double acc = h.system->tracker().accuracy(0);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(SystemTest, PrefetcherGeneratesAndResolvesPrefetches)
{
    Harness h(padcConfig(1), {"libquantum_06"}, 40000);
    const auto &ms = h.system->memStats(0);
    EXPECT_GT(ms.prefetches_issued, 100u);
    EXPECT_GT(ms.useful_prefetch_fills, 100u);
    // libquantum is nearly perfectly prefetchable.
    EXPECT_GT(static_cast<double>(h.system->result(0).pref_used) /
                  static_cast<double>(h.system->result(0).pref_sent),
              0.8);
}

TEST(SystemTest, UnfriendlyWorkloadDropsPrefetches)
{
    SystemConfig cfg = padcConfig(1);
    Harness h(cfg, {"omnetpp_06"}, 60000);
    EXPECT_GT(h.system->controller(0).stats().prefetches_dropped, 0u);
}

TEST(SystemTest, NoPrefetchConfigIssuesNone)
{
    SystemConfig cfg = padcConfig(1);
    cfg.prefetch_enabled = false;
    Harness h(cfg, {"libquantum_06"});
    EXPECT_EQ(h.system->memStats(0).prefetches_issued, 0u);
    EXPECT_EQ(h.system->memStats(0).prefetch_fills, 0u);
}

TEST(SystemTest, PromotionsHappenOnLatePrefetches)
{
    // Intense streaming makes some prefetches late -> demand matches.
    SystemConfig cfg = padcConfig(1);
    Harness h(cfg, {"swim_00"}, 80000);
    EXPECT_GT(h.system->memStats(0).promotions, 0u);
}

TEST(SystemTest, HistogramsAccumulate)
{
    // Small L2 so unused prefetched lines actually get evicted (the
    // useless histogram samples at eviction time); demand-first so APD
    // does not drop them first.
    SystemConfig cfg = padcConfig(1);
    cfg.sched.kind = SchedPolicyKind::DemandFirst;
    cfg.sched.apd_enabled = false;
    cfg.l2.size_bytes = 64 * 1024;
    Harness h(cfg, {"art_00"}, 60000);
    EXPECT_GT(h.system->usefulServiceHist().total(), 0u);
    EXPECT_GT(h.system->uselessServiceHist().total(), 0u);
}

TEST(SystemTest, AccuracyTimelineRecorded)
{
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = true;
    telemetry::Collector collector(tcfg);
    SystemConfig cfg = padcConfig(1);
    cfg.collector = &collector;
    Harness h(cfg, {"milc_06"}, 60000);
    const std::vector<telemetry::IntervalRow> rows =
        collector.sampler()->rows();
    ASSERT_GT(rows.size(), 2u);
    for (const telemetry::IntervalRow &row : rows) {
        EXPECT_GE(row.par, 0.0);
        EXPECT_LE(row.par, 1.0);
    }
    EXPECT_LT(rows.front().cycle, rows.back().cycle);
}

TEST(SystemTest, MultiCoreAllComplete)
{
    Harness h(padcConfig(4), workload::caseStudyMixed(), 15000);
    for (CoreId i = 0; i < 4; ++i)
        EXPECT_TRUE(h.system->result(i).done) << "core " << i;
}

TEST(SystemTest, SharedL2Works)
{
    SystemConfig cfg = padcConfig(4);
    cfg.shared_l2 = true;
    cfg.l2.size_bytes = 2 * 1024 * 1024;
    cfg.l2.ways = 16;
    cfg.mshr_per_l2 = 128;
    Harness h(cfg, workload::caseStudyMixed(), 15000);
    for (CoreId i = 0; i < 4; ++i)
        EXPECT_TRUE(h.system->result(i).done);
    // Exactly one L2 exists and absorbed all cores' traffic.
    EXPECT_GT(h.system->l2(0).stats().fills, 0u);
}

TEST(SystemTest, DualControllersShareTraffic)
{
    SystemConfig cfg = padcConfig(4);
    cfg.dram.geometry.channels = 2;
    Harness h(cfg, workload::caseStudyFriendly(), 15000);
    ASSERT_EQ(h.system->numControllers(), 2u);
    const auto &s0 = h.system->controller(0).stats();
    const auto &s1 = h.system->controller(1).stats();
    EXPECT_GT(s0.demand_reads + s0.prefetch_reads, 100u);
    EXPECT_GT(s1.demand_reads + s1.prefetch_reads, 100u);
}

TEST(SystemTest, ClosedRowPolicyRuns)
{
    SystemConfig cfg = padcConfig(1);
    cfg.sched.row_policy = RowPolicy::Closed;
    Harness h(cfg, {"libquantum_06"});
    EXPECT_TRUE(h.system->result(0).done);
    const auto m = collectMetrics(*h.system);
    EXPECT_GT(m.cores[0].ipc, 0.0);
}

TEST(SystemTest, RefreshEnabledRuns)
{
    SystemConfig cfg = padcConfig(1);
    cfg.dram.timing.refresh_enabled = true;
    cfg.dram.timing.tREFI = 520; // shortened so short runs see refreshes
    Harness h(cfg, {"libquantum_06"}, 30000);
    EXPECT_TRUE(h.system->result(0).done);
    EXPECT_GT(h.system->dramSystem().totalStats().refreshes, 0u);
}

TEST(SystemTest, WarmupWindowNarrowsMetrics)
{
    SystemConfig cfg = padcConfig(1);
    Harness cold(cfg, {"eon_00"}, 60000, 0);
    Harness warm(cfg, {"eon_00"}, 60000, 30000);
    const auto m_cold = collectMetrics(*cold.system);
    const auto m_warm = collectMetrics(*warm.system);
    // eon's working set fits the L2: after warm-up, misses nearly stop.
    EXPECT_LT(m_warm.cores[0].mpki, m_cold.cores[0].mpki);
    // Retirement is up to 4-wide, so boundaries land within a bundle.
    EXPECT_NEAR(static_cast<double>(m_warm.cores[0].instructions),
                30000.0, 8.0);
}

TEST(SystemTest, RunaheadIssuesRunaheadWork)
{
    SystemConfig cfg = padcConfig(1);
    cfg.core.runahead = true;
    Harness h(cfg, {"omnetpp_06"}, 40000);
    EXPECT_GT(h.system->coreModel(0).stats().runahead_episodes, 0u);
    EXPECT_GT(h.system->coreModel(0).stats().runahead_ops_issued, 0u);
}

TEST(SystemTest, ApsOnlyVersusPadcDropDifference)
{
    SystemConfig aps = padcConfig(1);
    aps.sched.apd_enabled = false;
    Harness a(aps, {"omnetpp_06"}, 40000);
    EXPECT_EQ(a.system->controller(0).stats().prefetches_dropped, 0u);

    Harness b(padcConfig(1), {"omnetpp_06"}, 40000);
    EXPECT_GT(b.system->controller(0).stats().prefetches_dropped, 0u);
}

TEST(SystemTest, DdpfFiltersPrefetches)
{
    // DDPF learns uselessness from unused-prefetch evictions: shrink
    // the L2 so evictions happen within a short run.
    SystemConfig cfg = padcConfig(1);
    cfg.ddpf_enabled = true;
    cfg.sched.apd_enabled = false;
    cfg.l2.size_bytes = 64 * 1024;
    Harness h(cfg, {"art_00"}, 60000);
    EXPECT_GT(h.system->memStats(0).prefetches_filtered, 0u);
}

TEST(SystemTest, FdpThrottlesUnfriendlyWorkloads)
{
    SystemConfig cfg = padcConfig(1);
    cfg.fdp_enabled = true;
    Harness with(cfg, {"omnetpp_06"}, 60000);
    cfg.fdp_enabled = false;
    Harness without(cfg, {"omnetpp_06"}, 60000);
    // FDP must reduce the number of prefetches entering the system for
    // a uselessly-prefetching workload.
    EXPECT_LT(with.system->memStats(0).prefetches_issued,
              without.system->memStats(0).prefetches_issued);
}

TEST(SystemTest, PermutationInterleavingRuns)
{
    SystemConfig cfg = padcConfig(2);
    cfg.dram.geometry.permutation_interleaving = true;
    Harness h(cfg, {"swim_00", "milc_06"}, 15000);
    EXPECT_TRUE(h.system->result(0).done);
    EXPECT_TRUE(h.system->result(1).done);
}

TEST(SystemTest, EightCoreBaselineRuns)
{
    const auto mixes = workload::randomMixes(1, 8, 3);
    Harness h(padcConfig(8), mixes[0], 6000);
    for (CoreId i = 0; i < 8; ++i)
        EXPECT_TRUE(h.system->result(i).done);
}

TEST(SystemTest, CycleCapStopsRun)
{
    SystemConfig cfg = padcConfig(1);
    for (std::uint32_t c = 0; c < 1; ++c) {
        workload::Mix mix = {"mcf_06"};
        std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            workload::traceParamsFor(mix, 0, 0)));
        System system(cfg, {traces[0].get()});
        system.run(100000000, /*max_cycles=*/5000);
        EXPECT_FALSE(system.result(0).done);
        EXPECT_LE(system.cycles(), 5001u);
        // Metrics remain computable.
        const auto m = collectMetrics(system);
        EXPECT_GE(m.cores[0].ipc, 0.0);
    }
}

} // namespace
} // namespace padc::sim
