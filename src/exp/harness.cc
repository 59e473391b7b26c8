#include "exp/harness.hh"

#include <cstdio>

namespace padc::exp
{

Aggregate
aggregateOverMixes(ExperimentContext &ctx, const sim::SystemConfig &config,
                   const std::vector<workload::Mix> &mixes,
                   const sim::RunOptions &base_options,
                   sim::AloneIpcCache &alone)
{
    std::vector<sim::SweepPoint> points;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        sim::RunOptions options = base_options;
        options.mix_seed = i;
        points.push_back({config, mixes[i], options});
    }
    const auto evals = ctx.evaluateSweep(points, alone);

    Aggregate agg;
    for (const auto &eval : evals)
        foldEvaluation(agg, eval.value);
    finishAggregate(agg);
    return agg;
}

std::vector<std::vector<sim::RunMetrics>>
singleCoreRuns(ExperimentContext &ctx, const sim::SystemConfig &base,
               const std::vector<std::string> &benchmarks,
               const std::vector<sim::PolicySetup> &policies,
               const sim::RunOptions &options)
{
    std::vector<sim::SweepPoint> points;
    for (const auto &name : benchmarks) {
        for (const auto setup : policies)
            points.push_back({sim::applyPolicy(base, setup), {name}, options});
    }
    const auto results = ctx.runSweep(points);

    // A failed point carries no cores; read it as one all-zero core so
    // one bad point cannot take down the whole table.
    std::vector<std::vector<sim::RunMetrics>> runs(benchmarks.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        sim::RunMetrics run = results[i].value;
        if (run.cores.empty())
            run.cores.resize(1);
        runs[i / policies.size()].push_back(std::move(run));
    }
    return runs;
}

std::vector<std::vector<double>>
singleCoreNormalizedIpc(ExperimentContext &ctx,
                        const sim::SystemConfig &base,
                        const std::vector<std::string> &benchmarks,
                        const std::vector<sim::PolicySetup> &policies,
                        const sim::RunOptions &options)
{
    std::vector<std::vector<double>> normalized(policies.size());

    // Column 0 of each row is the no-pref baseline the policies are
    // normalized to.
    std::vector<sim::PolicySetup> setups = {sim::PolicySetup::NoPref};
    setups.insert(setups.end(), policies.begin(), policies.end());
    const auto runs = singleCoreRuns(ctx, base, benchmarks, setups, options);

    std::printf("%-16s", "benchmark");
    for (const auto setup : policies)
        std::printf(" %17s", sim::policyLabel(setup).c_str());
    std::printf("\n");

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const double ipc_nopref = runs[b][0].cores[0].ipc;
        std::printf("%-16s", benchmarks[b].c_str());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const double ipc = runs[b][1 + p].cores[0].ipc;
            const double norm = ipc_nopref > 0 ? ipc / ipc_nopref : 0.0;
            normalized[p].push_back(norm);
            std::printf(" %17.3f", norm);
        }
        std::printf("\n");
    }

    std::printf("%-16s", "gmean");
    for (const auto &column : normalized)
        std::printf(" %17.3f", geomean(column));
    std::printf("\n");
    return normalized;
}

void
overallBench(ExperimentContext &ctx, std::uint32_t cores,
             std::uint32_t num_mixes,
             const std::vector<sim::PolicySetup> &policies,
             const std::function<void(sim::SystemConfig &)> &mutate,
             std::uint64_t mix_seed)
{
    sim::SystemConfig base = sim::SystemConfig::baseline(cores);
    if (mutate)
        mutate(base);
    const sim::RunOptions options = defaultOptions(cores);
    const auto mixes =
        workload::randomMixes(num_mixes, cores, ctx.mixSeed(mix_seed));
    sim::AloneIpcCache alone(base, options);

    // Flatten the whole (policy x mix) grid into one sweep so the pool
    // stays saturated across policy boundaries, then fold and print each
    // policy's row from the ordered results.
    std::vector<sim::SweepPoint> points;
    for (const auto setup : policies) {
        const sim::SystemConfig config = sim::applyPolicy(base, setup);
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            sim::RunOptions point_options = options;
            point_options.mix_seed = i;
            points.push_back({config, mixes[i], point_options});
        }
    }
    const auto evals = ctx.evaluateSweep(points, alone);

    std::printf("%u-core system, %u random mixes\n", cores, num_mixes);
    for (std::size_t p = 0; p < policies.size(); ++p) {
        Aggregate agg;
        for (std::size_t i = 0; i < mixes.size(); ++i)
            foldEvaluation(agg, evals[p * mixes.size() + i].value);
        finishAggregate(agg);
        printAggregate(sim::policyLabel(policies[p]), agg);
    }
}

void
caseStudyBench(ExperimentContext &ctx, const workload::Mix &mix,
               const std::vector<sim::PolicySetup> &policies)
{
    sim::SystemConfig base =
        sim::SystemConfig::baseline(static_cast<std::uint32_t>(mix.size()));
    sim::RunOptions options = defaultOptions(
        static_cast<std::uint32_t>(mix.size()));
    options.instructions = 150000;
    options.warmup = 30000;
    sim::AloneIpcCache alone(base, options);

    std::printf("mix:");
    for (const auto &name : mix)
        std::printf(" %s", name.c_str());
    std::printf("\n%-22s", "policy");
    for (const auto &name : mix)
        std::printf(" IS(%-12s)", name.substr(0, 12).c_str());
    std::printf(" %7s %7s %6s %9s %9s\n", "WS", "HS", "UF", "traffic",
                "useless");

    std::vector<sim::SweepPoint> points;
    for (const auto setup : policies)
        points.push_back({sim::applyPolicy(base, setup), mix, options});
    const auto evals = ctx.evaluateSweep(points, alone);

    for (std::size_t p = 0; p < policies.size(); ++p) {
        const sim::MixEvaluation &eval = evals[p].value;
        std::printf("%-22s", sim::policyLabel(policies[p]).c_str());
        for (const double is : eval.summary.speedups)
            std::printf(" %16.3f", is);
        std::printf(" %7.3f %7.3f %6.2f %9llu %9llu\n", eval.summary.ws,
                    eval.summary.hs, eval.summary.uf,
                    static_cast<unsigned long long>(
                        eval.metrics.totalTraffic()),
                    static_cast<unsigned long long>(
                        eval.metrics.trafficPrefUseless()));
    }
}

} // namespace padc::exp
