/**
 * @file
 * Figure 4: (a) memory service time histogram of useful vs useless
 * prefetches under demand-first, and (b) the prefetch-accuracy timeline
 * for the phase-behaved milc workload.
 *
 * Paper shape: (a) useless prefetches dominate the long-service-time
 * tail (their mean service time exceeds the useful mean); (b) accuracy
 * swings between a high and a near-zero phase.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "exp/registry.hh"
#include "exp/report.hh"
#include "sim/system.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"

namespace padc::exp
{
namespace
{

void
runFig04(ExperimentContext &ctx)
{
    sim::SystemConfig cfg = sim::applyPolicy(
        sim::SystemConfig::baseline(1), sim::PolicySetup::DemandFirst);
    // Shrink the L2 so unused prefetched lines resolve (evict) within
    // the run; usefulness classification needs eviction or use.
    cfg.l2.size_bytes = 256 * 1024;
    // Fig. 4(b) plots the PAR the interval sampler records at each
    // accuracy-interval boundary.
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = true;
    telemetry::Collector collector(tcfg);
    cfg.collector = &collector;

    const workload::Mix mix = {"milc_06"};
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    traces.push_back(std::make_unique<workload::SyntheticTrace>(
        workload::traceParamsFor(mix, 0, 0)));
    sim::System system(cfg, {traces[0].get()});
    system.run(400000, 80000000);

    const Histogram &useful = system.usefulServiceHist();
    const Histogram &useless = system.uselessServiceHist();

    std::printf("(a) prefetch service time histogram "
                "(bucket width %llu cycles)\n",
                static_cast<unsigned long long>(useful.bucketWidth()));
    std::printf("%-18s %12s %12s\n", "service time", "pref-useful",
                "pref-useless");
    for (std::uint32_t b = 0; b <= useful.buckets(); ++b) {
        char label[32];
        if (b < useful.buckets()) {
            std::snprintf(label, sizeof(label), "%u - %u",
                          b * static_cast<unsigned>(useful.bucketWidth()),
                          (b + 1) * static_cast<unsigned>(
                                        useful.bucketWidth()));
        } else {
            std::snprintf(label, sizeof(label), "%u+",
                          (b) * static_cast<unsigned>(
                                    useful.bucketWidth()));
        }
        std::printf("%-18s %12llu %12llu\n", label,
                    static_cast<unsigned long long>(useful.count(b)),
                    static_cast<unsigned long long>(useless.count(b)));
    }
    std::printf("mean service time: useful %.0f cycles, useless %.0f "
                "cycles -> %s\n\n",
                useful.mean(), useless.mean(),
                useless.mean() > useful.mean()
                    ? "useless slower (paper: 1486 vs 2238)"
                    : "UNEXPECTED");

    std::printf("(b) prefetch accuracy per interval\n");
    double lo = 1.0;
    double hi = 0.0;
    for (const telemetry::IntervalRow &row : collector.sampler()->rows()) {
        const double acc = row.par; // one core: every row is core 0's
        const int stars = static_cast<int>(acc * 50);
        std::printf("%9llu  %5.2f  |%.*s\n",
                    static_cast<unsigned long long>(row.cycle), acc, stars,
                    "**************************************************");
        lo = std::min(lo, acc);
        hi = std::max(hi, acc);
    }
    std::printf("accuracy range over run: %.2f .. %.2f -> %s\n", lo, hi,
                hi - lo > 0.3 ? "strong phase behaviour (paper Fig 4b)"
                              : "WEAK PHASES");

    StatSet metrics;
    metrics.add("useful_service_mean", useful.mean());
    metrics.add("useless_service_mean", useless.mean());
    metrics.add("accuracy_min", lo);
    metrics.add("accuracy_max", hi);
    ctx.recordCustomPoint("milc_06 demand-first", system.cycles(),
                          metrics);
}

const Registrar registrar(
    {"fig04", "Figure 4", "prefetch behaviour of milc (demand-first)",
     "(a) useless prefetches skew to long service times; "
     "(b) accuracy shows strong phase behaviour",
     {"single-core", "motivation"}},
    &runFig04);

} // namespace
} // namespace padc::exp
