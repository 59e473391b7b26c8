#include "exp/report.hh"

#include <cstdio>

namespace padc::exp
{

const std::vector<sim::PolicySetup> &
fivePolicies()
{
    static const std::vector<sim::PolicySetup> policies = {
        sim::PolicySetup::NoPref,     sim::PolicySetup::DemandFirst,
        sim::PolicySetup::DemandPrefEqual, sim::PolicySetup::ApsOnly,
        sim::PolicySetup::Padc,
    };
    return policies;
}

sim::RunOptions
defaultOptions(std::uint32_t cores)
{
    sim::RunOptions opt;
    opt.instructions = cores == 1 ? 200000 : 100000;
    opt.warmup = opt.instructions / 4;
    opt.max_cycles = 80000000;
    return opt;
}

std::vector<std::string>
figureSixBenchmarks()
{
    return {"swim_00",      "galgel_00",   "art_00",     "ammp_00",
            "gcc_06",       "mcf_06",      "libquantum_06",
            "omnetpp_06",   "xalancbmk_06", "bwaves_06",  "milc_06",
            "cactusADM_06", "leslie3d_06", "soplex_06",  "lbm_06"};
}

void
banner(const std::string &artifact, const std::string &description,
       const std::string &expectation)
{
    std::printf("==============================================================\n");
    std::printf("%s -- %s\n", artifact.c_str(), description.c_str());
    std::printf("paper shape: %s\n", expectation.c_str());
    std::printf("==============================================================\n");
}

namespace
{

template <typename T>
std::size_t
reportSweepFailuresImpl(const std::vector<sim::SweepPoint> &points,
                        const std::vector<sim::Result<T>> &results)
{
    // Diagnostics go to stderr, apart from the experiments' rows on
    // stdout: failure reports are what an operator should see even
    // when stdout is piped elsewhere.
    std::size_t bad = 0;
    for (const auto &result : results)
        bad += result.ok() ? 0 : 1;
    if (bad == 0)
        return 0;
    std::fprintf(stderr,
                 "WARNING: %zu of %zu sweep points did not produce a "
                 "converged result:\n",
                 bad, results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].ok())
            continue;
        std::fprintf(stderr, "  point %zu (%s): %s: %s\n", i,
                     sim::describePoint(points[i]).c_str(),
                     sim::toString(results[i].outcome.status),
                     results[i].outcome.detail.c_str());
    }
    return bad;
}

} // namespace

std::size_t
reportSweepFailures(const std::vector<sim::SweepPoint> &points,
                    const std::vector<sim::Result<sim::MixEvaluation>> &results)
{
    return reportSweepFailuresImpl(points, results);
}

std::size_t
reportSweepFailures(const std::vector<sim::SweepPoint> &points,
                    const std::vector<sim::Result<sim::RunMetrics>> &results)
{
    return reportSweepFailuresImpl(points, results);
}

void
foldEvaluation(Aggregate &agg, const sim::MixEvaluation &eval)
{
    agg.ws += eval.summary.ws;
    agg.hs += eval.summary.hs;
    agg.uf += eval.summary.uf;
    agg.traffic += static_cast<double>(eval.metrics.totalTraffic());
    agg.traffic_useless +=
        static_cast<double>(eval.metrics.trafficPrefUseless());
    agg.traffic_useful +=
        static_cast<double>(eval.metrics.trafficPrefUseful());
    agg.traffic_demand +=
        static_cast<double>(eval.metrics.trafficDemand());
    ++agg.mixes;
}

void
finishAggregate(Aggregate &agg)
{
    const double n = agg.mixes > 0 ? agg.mixes : 1;
    agg.ws /= n;
    agg.hs /= n;
    agg.uf /= n;
    agg.traffic /= n;
    agg.traffic_useless /= n;
    agg.traffic_useful /= n;
    agg.traffic_demand /= n;
}

void
printAggregate(const std::string &label, const Aggregate &agg)
{
    std::printf("%-22s WS %7.3f  HS %7.3f  UF %6.2f  traffic %9.0f"
                "  (dem %7.0f  useful %7.0f  useless %7.0f)\n",
                label.c_str(), agg.ws, agg.hs, agg.uf, agg.traffic,
                agg.traffic_demand, agg.traffic_useful,
                agg.traffic_useless);
}

} // namespace padc::exp
