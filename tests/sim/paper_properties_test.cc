/**
 * @file
 * Paper-shape regression tests: small, fast versions of the claims the
 * benchmark binaries reproduce at full size. If a refactor breaks one
 * of the paper's qualitative results, it fails here, in CI, not in a
 * 20-minute bench run.
 *
 *  - Fig. 1 crossover: demand-pref-equal beats demand-first for the
 *    prefetch-friendly libquantum; demand-first beats demand-pref-equal
 *    for the prefetch-unfriendly milc.
 *  - Prefetching helps friendly workloads a lot (Fig. 6).
 *  - APD cuts useless-prefetch traffic on unfriendly workloads (Fig. 8).
 *  - PADC beats both rigid policies on the mixed 4-core case study
 *    (Figs. 14-15).
 *  - RBHU ordering: demand-pref-equal >= demand-first (Table 7).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "telemetry/telemetry.hh"

namespace padc::sim
{
namespace
{

RunMetrics
runSingle(const std::string &profile, PolicySetup setup,
          std::uint64_t instructions = 150000)
{
    const SystemConfig cfg =
        applyPolicy(SystemConfig::baseline(1), setup);
    RunOptions opt;
    opt.instructions = instructions;
    opt.warmup = instructions / 4;
    return runMix(cfg, {profile}, opt);
}

TEST(PaperShapeTest, Fig1FriendlySideEqualBeatsDemandFirst)
{
    const double eq =
        runSingle("libquantum_06", PolicySetup::DemandPrefEqual)
            .cores[0]
            .ipc;
    const double df =
        runSingle("libquantum_06", PolicySetup::DemandFirst).cores[0].ipc;
    EXPECT_GT(eq, df);
}

TEST(PaperShapeTest, Fig1UnfriendlySideDemandFirstBeatsEqual)
{
    const double eq =
        runSingle("milc_06", PolicySetup::DemandPrefEqual).cores[0].ipc;
    const double df =
        runSingle("milc_06", PolicySetup::DemandFirst).cores[0].ipc;
    EXPECT_GT(df, eq * 1.05);
}

TEST(PaperShapeTest, PrefetchingHelpsFriendlyWorkloads)
{
    const double nopref =
        runSingle("libquantum_06", PolicySetup::NoPref).cores[0].ipc;
    const double padc =
        runSingle("libquantum_06", PolicySetup::Padc).cores[0].ipc;
    EXPECT_GT(padc, nopref * 1.25);
}

TEST(PaperShapeTest, PrefetchFirstIsWorstForUnfriendly)
{
    // Footnote 2: prefetch-first is the worst policy overall.
    const double pf =
        runSingle("milc_06", PolicySetup::PrefetchFirst).cores[0].ipc;
    const double df =
        runSingle("milc_06", PolicySetup::DemandFirst).cores[0].ipc;
    EXPECT_GT(df, pf);
}

TEST(PaperShapeTest, ApdCutsUselessTrafficOnUnfriendly)
{
    const auto df = runSingle("omnetpp_06", PolicySetup::DemandFirst);
    const auto padc = runSingle("omnetpp_06", PolicySetup::Padc);
    EXPECT_LT(padc.trafficPrefUseless(),
              df.trafficPrefUseless() * 0.9);
    // ... without losing performance.
    EXPECT_GT(padc.cores[0].ipc, df.cores[0].ipc * 0.95);
}

TEST(PaperShapeTest, ApsTracksBestRigidPolicyPerClass)
{
    // Friendly: APS within a few percent of demand-pref-equal.
    const double eq_f =
        runSingle("libquantum_06", PolicySetup::DemandPrefEqual)
            .cores[0]
            .ipc;
    const double aps_f =
        runSingle("libquantum_06", PolicySetup::ApsOnly).cores[0].ipc;
    EXPECT_GT(aps_f, eq_f * 0.93);

    // Unfriendly: APS within a few percent of demand-first.
    const double df_u =
        runSingle("milc_06", PolicySetup::DemandFirst).cores[0].ipc;
    const double aps_u =
        runSingle("milc_06", PolicySetup::ApsOnly).cores[0].ipc;
    EXPECT_GT(aps_u, df_u * 0.93);
}

TEST(PaperShapeTest, RbhuOrderingEqualAtLeastDemandFirst)
{
    const double rbhu_eq =
        runSingle("swim_00", PolicySetup::DemandPrefEqual).cores[0].rbhu;
    const double rbhu_df =
        runSingle("swim_00", PolicySetup::DemandFirst).cores[0].rbhu;
    EXPECT_GE(rbhu_eq + 0.02, rbhu_df);
}

TEST(PaperShapeTest, MixedCaseStudyPadcBeatsRigidPolicies)
{
    const SystemConfig base = SystemConfig::baseline(4);
    RunOptions opt;
    opt.instructions = 60000;
    opt.warmup = 15000;
    AloneIpcCache alone(base, opt);
    const workload::Mix mix = workload::caseStudyMixed();

    const double ws_df =
        evaluateMix(applyPolicy(base, PolicySetup::DemandFirst), mix,
                    opt, alone)
            .summary.ws;
    const double ws_eq =
        evaluateMix(applyPolicy(base, PolicySetup::DemandPrefEqual), mix,
                    opt, alone)
            .summary.ws;
    const double ws_padc =
        evaluateMix(applyPolicy(base, PolicySetup::Padc), mix, opt,
                    alone)
            .summary.ws;
    EXPECT_GT(ws_padc, ws_df);
    EXPECT_GT(ws_padc, ws_eq);
}

TEST(PaperShapeTest, MilcAccuracyShowsPhases)
{
    // Fig. 4(b): milc's measured accuracy swings by a wide margin.
    SystemConfig cfg =
        applyPolicy(SystemConfig::baseline(1), PolicySetup::DemandFirst);
    // Use the System directly, sampling PAR at every interval.
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = true;
    telemetry::Collector collector(tcfg);
    cfg.collector = &collector;
    RunOptions opt;
    opt.instructions = 300000;
    const workload::Mix mix = {"milc_06"};
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    traces.push_back(std::make_unique<workload::SyntheticTrace>(
        workload::traceParamsFor(mix, 0, 0)));
    System system(cfg, {traces[0].get()});
    system.run(opt.instructions, opt.max_cycles);
    double lo = 1.0;
    double hi = 0.0;
    for (const telemetry::IntervalRow &row : collector.sampler()->rows()) {
        lo = std::min(lo, row.par);
        hi = std::max(hi, row.par);
    }
    EXPECT_GT(hi - lo, 0.3);
}

} // namespace
} // namespace padc::sim
