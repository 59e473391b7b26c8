/**
 * @file
 * Figure 7: stall time per load (SPL) on the single-core system for all
 * five policies.
 *
 * Paper shape: PADC has the lowest SPL on average (-5.0% vs
 * demand-first); prefetching reduces SPL drastically for the friendly
 * benchmarks.
 */

#include <cstdio>

#include "exp/harness.hh"
#include "exp/registry.hh"

namespace padc::exp
{
namespace
{

void
runFig07(ExperimentContext &ctx)
{
    const auto &policies = fivePolicies();
    const auto benchmarks = figureSixBenchmarks();
    const auto runs = singleCoreRuns(ctx, sim::SystemConfig::baseline(1),
                                     benchmarks, policies, defaultOptions(1));

    std::printf("%-16s", "benchmark");
    for (const auto setup : policies)
        std::printf(" %17s", sim::policyLabel(setup).c_str());
    std::printf("\n");

    std::vector<std::vector<double>> spl(policies.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::printf("%-16s", benchmarks[b].c_str());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            spl[p].push_back(runs[b][p].cores[0].spl);
            std::printf(" %17.1f", spl[p].back());
        }
        std::printf("\n");
    }
    std::printf("%-16s", "amean");
    for (const auto &column : spl)
        std::printf(" %17.1f", amean(column));
    std::printf("\n");
}

const Registrar registrar(
    {"fig07", "Figure 7", "stall cycles per load (SPL), single core",
     "PADC lowest average SPL; large drops for friendly apps",
     {"single-core"}},
    &runFig07);

} // namespace
} // namespace padc::exp
