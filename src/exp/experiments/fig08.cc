/**
 * @file
 * Figure 8: single-core bus traffic broken into demand, useful-prefetch,
 * and useless-prefetch cache lines, per policy.
 *
 * Paper shape: PADC reduces total traffic (~10.4% over the suite),
 * almost entirely by removing useless prefetches (APD); for friendly
 * apps the breakdown barely changes.
 */

#include <cstdio>

#include "exp/harness.hh"
#include "exp/registry.hh"

namespace padc::exp
{
namespace
{

void
runFig08(ExperimentContext &ctx)
{
    const auto &policies = fivePolicies();
    const auto benchmarks = figureSixBenchmarks();
    const auto runs = singleCoreRuns(ctx, sim::SystemConfig::baseline(1),
                                     benchmarks, policies, defaultOptions(1));

    std::printf("%-16s %-18s %10s %10s %10s %10s\n", "benchmark",
                "policy", "demand", "useful", "useless", "total");

    std::vector<double> totals(policies.size(), 0.0);
    std::vector<double> useless(policies.size(), 0.0);
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const sim::RunMetrics &metrics = runs[b][p];
            const auto demand = metrics.trafficDemand();
            const auto use = metrics.trafficPrefUseful();
            const auto no_use = metrics.trafficPrefUseless();
            totals[p] += static_cast<double>(metrics.totalTraffic());
            useless[p] += static_cast<double>(no_use);
            std::printf("%-16s %-18s %10llu %10llu %10llu %10llu\n",
                        benchmarks[b].c_str(),
                        sim::policyLabel(policies[p]).c_str(),
                        static_cast<unsigned long long>(demand),
                        static_cast<unsigned long long>(use),
                        static_cast<unsigned long long>(no_use),
                        static_cast<unsigned long long>(
                            metrics.totalTraffic()));
        }
    }
    std::printf("\n%-18s %14s %14s\n", "policy (sums)", "total",
                "useless");
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::printf("%-18s %14.0f %14.0f\n",
                    sim::policyLabel(policies[p]).c_str(), totals[p],
                    useless[p]);
    }
    const double df = totals[1];
    const double padc = totals[4];
    std::printf("\nPADC total traffic vs demand-first: %+.1f%% "
                "(paper: -10.4%%)\n",
                df > 0 ? (padc - df) / df * 100.0 : 0.0);
}

const Registrar registrar(
    {"fig08", "Figure 8", "bus traffic breakdown, single core",
     "PADC cuts useless-prefetch traffic; total -10% ish",
     {"single-core", "traffic"}},
    &runFig08);

} // namespace
} // namespace padc::exp
