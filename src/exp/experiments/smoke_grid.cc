/**
 * @file
 * Smoke grid: a 9-point (3 policies x 3 seeds) evaluate sweep that
 * still takes seconds of wall-clock. The driver tests run it to check
 * the sweep layer end to end (journal replay, --progress, graceful
 * stop), and it is half of the golden_points gate, whose digests pin
 * its nine points. Routing through evaluateSweep covers the alone-run
 * path that runSweep-only experiments never touch.
 */

#include <cstdio>

#include "exp/registry.hh"
#include "exp/report.hh"

namespace padc::exp
{
namespace
{

void
runSmokeGrid(ExperimentContext &ctx)
{
    const sim::SystemConfig base = sim::SystemConfig::baseline(1);
    sim::RunOptions options;
    options.instructions = 20000;
    options.warmup = 5000;
    options.max_cycles = 10000000;

    const workload::Mix mix = {"mcf_06"};
    const std::vector<sim::PolicySetup> policies = {
        sim::PolicySetup::NoPref, sim::PolicySetup::DemandFirst,
        sim::PolicySetup::Padc};
    const std::uint64_t base_seed = ctx.mixSeed(1);
    constexpr std::uint64_t kSeeds = 3;

    std::vector<sim::SweepPoint> points;
    for (const auto setup : policies) {
        for (std::uint64_t s = 0; s < kSeeds; ++s) {
            sim::RunOptions seeded = options;
            seeded.mix_seed = base_seed + s;
            points.push_back(
                {sim::applyPolicy(base, setup), mix, seeded});
        }
    }

    sim::AloneIpcCache alone(base, options);
    const auto evals = ctx.evaluateSweep(points, alone);

    std::printf("%-18s %6s %8s %8s %8s\n", "policy", "seed", "WS", "HS",
                "UF");
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::uint64_t s = 0; s < kSeeds; ++s) {
            const auto &eval = evals[p * kSeeds + s].value;
            std::printf("%-18s %6llu %8.3f %8.3f %8.2f\n",
                        sim::policyLabel(policies[p]).c_str(),
                        static_cast<unsigned long long>(base_seed + s),
                        eval.summary.ws, eval.summary.hs,
                        eval.summary.uf);
        }
    }
}

const Registrar registrar(
    {"smoke_grid", "Smoke grid", "nine-point sweep-layer smoke grid",
     "runs in seconds; exercises the sweep, journal and progress paths",
     {"sweep"}},
    &runSmokeGrid);

} // namespace
} // namespace padc::exp
