/**
 * @file
 * Table 7: row-buffer hit rate for *useful* requests (RBHU) per policy.
 *
 * Paper shape: demand-pref-equal has the highest RBHU; APS comes very
 * close; demand-first is noticeably lower; APD (PADC) gives up a tiny
 * amount of RBHU on unfriendly apps by dropping some useful prefetches.
 */

#include <cstdio>

#include "exp/harness.hh"
#include "exp/registry.hh"

namespace padc::exp
{
namespace
{

void
runTab07(ExperimentContext &ctx)
{
    const std::vector<std::string> benchmarks = {
        "swim_00",    "galgel_00",     "art_00",   "ammp_00",
        "mcf_06",     "libquantum_06", "omnetpp_06",
        "xalancbmk_06", "bwaves_06",   "milc_06",  "leslie3d_06",
        "soplex_06",  "lbm_06"};

    const auto &policies = fivePolicies();
    const auto runs = singleCoreRuns(ctx, sim::SystemConfig::baseline(1),
                                     benchmarks, policies, defaultOptions(1));

    std::printf("%-16s", "benchmark");
    for (const auto setup : policies)
        std::printf(" %17s", sim::policyLabel(setup).c_str());
    std::printf("\n");

    std::vector<std::vector<double>> rbhu(policies.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::printf("%-16s", benchmarks[b].c_str());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            rbhu[p].push_back(runs[b][p].cores[0].rbhu);
            std::printf(" %17.2f", rbhu[p].back());
        }
        std::printf("\n");
    }
    std::printf("%-16s", "amean");
    for (const auto &column : rbhu)
        std::printf(" %17.2f", amean(column));
    std::printf("\n");
}

const Registrar registrar(
    {"tab07", "Table 7", "row-buffer hit rate of useful requests",
     "equal >= APS > demand-first; PADC slightly below APS on "
     "unfriendly apps",
     {"table", "single-core"}},
    &runTab07);

} // namespace
} // namespace padc::exp
