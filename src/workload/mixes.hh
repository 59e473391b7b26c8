/**
 * @file
 * Multiprogrammed workload construction (paper Section 5.1: randomly
 * chosen SPEC combinations for the 2-, 4-, and 8-core experiments, plus
 * the three 4-core case studies of Section 6.3).
 */

#ifndef PADC_WORKLOAD_MIXES_HH
#define PADC_WORKLOAD_MIXES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/trace.hh"
#include "workload/profile.hh"

namespace padc::workload
{

/** A multiprogrammed workload: one profile name per core. */
using Mix = std::vector<std::string>;

/**
 * Randomly chosen mixes from the full profile pool, deterministic in
 * @p seed (mirrors the paper's 54/32/21 random workload combinations).
 */
std::vector<Mix> randomMixes(std::uint32_t count, std::uint32_t cores,
                             std::uint64_t seed);

/** Case study I (Section 6.3.1): four prefetch-friendly applications. */
Mix caseStudyFriendly();

/** Case study II (Section 6.3.2): four prefetch-unfriendly applications. */
Mix caseStudyUnfriendly();

/** Case study III (Section 6.3.3): two friendly + two unfriendly. */
Mix caseStudyMixed();

/**
 * Check every name in @p mix against the built-in profile table,
 * accumulating one ConfigError per unknown name -- each with a
 * Levenshtein "did you mean" suggestion -- instead of stopping at the
 * first. Field paths are "mix[core]".
 * @return true when every name resolves.
 */
bool validateMix(const Mix &mix, ConfigErrors *errors);

/**
 * Concrete trace parameters for one core of a mix: the synthetic
 * profile's parameters with a per-(mix, core) seed and a disjoint
 * address-space base.
 * @throws std::invalid_argument when @p core is out of range or the
 *         name is not a built-in profile (with a "did you mean"
 *         suggestion).
 */
TraceParams traceParamsFor(const Mix &mix, std::uint32_t core,
                           std::uint64_t mix_seed);

/**
 * Instantiate the trace source for one core of a mix: a SyntheticTrace
 * over traceParamsFor(). Every mix is synthetic; this is the single
 * entry point the simulator uses to turn a profile name into a trace.
 * @throws std::invalid_argument as traceParamsFor() does.
 */
std::unique_ptr<core::TraceSource>
makeTraceSource(const Mix &mix, std::uint32_t core,
                std::uint64_t mix_seed);

} // namespace padc::workload

#endif // PADC_WORKLOAD_MIXES_HH
