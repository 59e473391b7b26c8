/**
 * @file
 * The standard experiment shapes most paper artifacts are built from:
 * the multiprogrammed "overall" experiment (random mixes, one aggregate
 * row per policy), the Section 6.3 case studies, the single-core
 * (benchmark x policy) grid and its normalized-IPC table, and mix
 * aggregation. Every sweep goes through the ExperimentContext, so the
 * structured per-point results are recorded uniformly while the printed
 * rows stay exactly the ones the standalone bench binaries produced.
 */

#ifndef PADC_EXP_HARNESS_HH
#define PADC_EXP_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/report.hh"

namespace padc::exp
{

/**
 * Run @p config over every mix and average the multiprogrammed metrics.
 * The alone-IPC cache must be built from the same base options. Mixes
 * are evaluated in parallel (the context's runner); the aggregate is
 * folded in mix order, so results are independent of the thread count.
 */
Aggregate aggregateOverMixes(ExperimentContext &ctx,
                             const sim::SystemConfig &config,
                             const std::vector<workload::Mix> &mixes,
                             const sim::RunOptions &base_options,
                             sim::AloneIpcCache &alone);

/**
 * One single-core sweep of every policy on every benchmark, returned
 * as runs[benchmark][policy]. A point that failed reads as one
 * all-zero core, so cores[0] is always there.
 */
std::vector<std::vector<sim::RunMetrics>>
singleCoreRuns(ExperimentContext &ctx, const sim::SystemConfig &base,
               const std::vector<std::string> &benchmarks,
               const std::vector<sim::PolicySetup> &policies,
               const sim::RunOptions &options);

/**
 * Single-core sweep: IPC of every policy for every benchmark,
 * normalized to no-prefetching (the paper's Fig. 6 format). Returns
 * the per-policy vector of normalized IPCs (for gmean reporting).
 */
std::vector<std::vector<double>>
singleCoreNormalizedIpc(ExperimentContext &ctx,
                        const sim::SystemConfig &base,
                        const std::vector<std::string> &benchmarks,
                        const std::vector<sim::PolicySetup> &policies,
                        const sim::RunOptions &options);

/**
 * The standard multiprogrammed "overall" experiment: random mixes on an
 * n-core system, one aggregate row per policy. @p mutate (if given)
 * adjusts the base configuration before policies are applied (e.g. dual
 * channels, shared L2, row-buffer size). The context's --seed override
 * replaces @p mix_seed when set.
 */
void overallBench(ExperimentContext &ctx, std::uint32_t cores,
                  std::uint32_t num_mixes,
                  const std::vector<sim::PolicySetup> &policies,
                  const std::function<void(sim::SystemConfig &)> &mutate = {},
                  std::uint64_t mix_seed = 1234);

/**
 * One case-study mix (paper Section 6.3): per-policy individual
 * speedups plus WS/HS/UF and traffic.
 */
void caseStudyBench(ExperimentContext &ctx, const workload::Mix &mix,
                    const std::vector<sim::PolicySetup> &policies);

} // namespace padc::exp

#endif // PADC_EXP_HARNESS_HH
