#include "workload/mixes.hh"

#include <algorithm>
#include <stdexcept>

#include "common/random.hh"
#include "common/suggest.hh"
#include "workload/generator.hh"

namespace padc::workload
{

std::vector<Mix>
randomMixes(std::uint32_t count, std::uint32_t cores, std::uint64_t seed)
{
    const auto names = allProfileNames();
    Rng rng(seed);
    std::vector<Mix> mixes;
    mixes.reserve(count);
    for (std::uint32_t m = 0; m < count; ++m) {
        Mix mix;
        for (std::uint32_t c = 0; c < cores; ++c)
            mix.push_back(names[rng.nextBelow(names.size())]);
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

Mix
caseStudyFriendly()
{
    return {"swim_00", "bwaves_06", "leslie3d_06", "soplex_06"};
}

Mix
caseStudyUnfriendly()
{
    return {"art_00", "galgel_00", "ammp_00", "milc_06"};
}

Mix
caseStudyMixed()
{
    return {"omnetpp_06", "libquantum_06", "galgel_00", "GemsFDTD_06"};
}

namespace
{

/** "core N is out of range for a K-profile mix" guard. */
void
checkCore(const Mix &mix, std::uint32_t core)
{
    if (core >= mix.size()) {
        throw std::invalid_argument(
            "core " + std::to_string(core) + " is out of range for a " +
            std::to_string(mix.size()) + "-profile mix");
    }
}

/**
 * "unknown profile 'X' (did you mean 'Y'?)": Y is the closest built-in
 * profile name, ties going to the alphabetically first.
 */
std::string
unknownProfileMessage(const std::string &name)
{
    std::vector<std::string> names = allProfileNames();
    std::sort(names.begin(), names.end());
    return "unknown profile '" + name + "'" + didYouMean(name, names);
}

} // namespace

bool
validateMix(const Mix &mix, ConfigErrors *errors)
{
    bool ok = true;
    for (std::size_t core = 0; core < mix.size(); ++core) {
        if (findProfile(mix[core]) != nullptr)
            continue;
        ok = false;
        if (errors != nullptr) {
            errors->add("mix[" + std::to_string(core) + "]",
                        unknownProfileMessage(mix[core]));
        }
    }
    return ok;
}

TraceParams
traceParamsFor(const Mix &mix, std::uint32_t core, std::uint64_t mix_seed)
{
    checkCore(mix, core);
    const BenchmarkProfile *profile = findProfile(mix[core]);
    if (profile == nullptr)
        throw std::invalid_argument(unknownProfileMessage(mix[core]));

    TraceParams params = profile->params;
    // Distinct seed per (mix, core) so identical profiles co-running on
    // different cores do not produce lock-step address streams.
    params.seed ^= (mix_seed * 0x9E3779B97F4A7C15ULL) ^
                   (static_cast<std::uint64_t>(core) << 56);
    // Disjoint per-core address regions: cores contend for banks and
    // rows in the shared DRAM but never share lines.
    params.base = static_cast<Addr>(core) << 40;
    return params;
}

std::unique_ptr<core::TraceSource>
makeTraceSource(const Mix &mix, std::uint32_t core, std::uint64_t mix_seed)
{
    return std::make_unique<SyntheticTrace>(
        traceParamsFor(mix, core, mix_seed));
}

} // namespace padc::workload
