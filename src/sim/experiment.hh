/**
 * @file
 * Experiment harness shared by the benchmark binaries and examples.
 *
 * Provides the paper's canonical policy setups (no-pref, demand-first,
 * demand-prefetch-equal, prefetch-first, APS-only, PADC, PADC+rank and
 * the no-urgency ablations), single-mix runners, an alone-IPC cache for
 * WS/HS/UF computation, and the fault-tolerant parallel sweeps.
 */

#ifndef PADC_SIM_EXPERIMENT_HH
#define PADC_SIM_EXPERIMENT_HH

#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "sim/metrics.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "workload/mixes.hh"

namespace padc::sim
{

class SweepJournal;

/** The policy columns appearing in the paper's figures. */
enum class PolicySetup
{
    NoPref,          ///< prefetcher disabled
    DemandFirst,     ///< rigid demand-over-prefetch (baseline)
    DemandPrefEqual, ///< rigid FR-FCFS, prefetch-blind
    PrefetchFirst,   ///< rigid prefetch-over-demand (footnote 2)
    ApsOnly,         ///< adaptive scheduling, no dropping
    Padc,            ///< APS + APD
    PadcRank,        ///< PADC with the Section 6.5 ranking rule
    ApsNoUrgent,     ///< APS without the urgency level (Table 8)
    PadcNoUrgent,    ///< PADC without the urgency level (Table 8)
    ApdOnly,         ///< demand-first scheduling + APD (Section 6.12)
};

/** Figure-style label, e.g. "aps-apd (PADC)". */
std::string policyLabel(PolicySetup setup);

/** Apply a policy setup to a base system configuration. */
SystemConfig applyPolicy(SystemConfig base, PolicySetup setup);

/** Common run options. */
struct RunOptions
{
    std::uint64_t instructions = 200000; ///< per-core retire target
    std::uint64_t warmup = 50000;        ///< per-core warm-up instructions
    std::uint64_t max_cycles = 30000000; ///< safety cap
    std::uint64_t mix_seed = 0;          ///< per-mix seed salt
};

/** RunOptions's field table; see common/fields.hh. */
template <fields::Of<RunOptions> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("instructions", s.instructions);
    v("warmup", s.warmup);
    v("max_cycles", s.max_cycles);
    v("mix_seed", s.mix_seed);
}
static_assert(fields::complete<RunOptions>());

/**
 * Run one multiprogrammed mix under @p config.
 * Builds one SyntheticTrace per core from the named profiles.
 *
 * @param status when non-null, receives the RunStatus of the underlying
 *        System::run, so callers can distinguish converged results from
 *        runs truncated at the max_cycles cap.
 * @throws std::invalid_argument when @p config fails validation or the
 *         mix size does not match num_cores.
 */
RunMetrics runMix(const SystemConfig &config, const workload::Mix &mix,
                  const RunOptions &options, RunStatus *status = nullptr);

/**
 * Memoizing provider of alone-run IPCs.
 *
 * Per the paper's methodology, IPC_alone is measured with the
 * demand-first policy on the same shared-resource configuration, with
 * the application on core 0 and the remaining cores idle.
 *
 * Thread-safe: concurrent ipcAlone calls are allowed (each alone-run is
 * deterministic, so a racing re-computation of the same key yields the
 * same value; the first insert wins). Use prewarm() to fill the cache in
 * parallel up front so sweep jobs only ever hit.
 */
class AloneIpcCache
{
  public:
    /**
     * @param base the CMP configuration the together-runs use
     * @param options same run options as the together-runs
     */
    AloneIpcCache(SystemConfig base, RunOptions options);

    /**
     * Alone IPC of @p profile_name running on core @p core of the CMP.
     * Throws std::runtime_error, naming the profile, core and seed, when
     * the alone run hits the cycle cap, so the point that needs it fails
     * rather than being normalised by a partial IPC.
     */
    double ipcAlone(const std::string &profile_name, std::uint32_t core,
                    std::uint64_t mix_seed);

    /**
     * Compute the alone IPC of every (profile, core) slot of the given
     * mixes across @p runner, where mix i uses seed base_seed + i (the
     * convention every bench uses). Deterministic regardless of the
     * runner's thread count.
     */
    void prewarm(const std::vector<workload::Mix> &mixes,
                 std::uint64_t base_seed, ParallelExperimentRunner &runner);

    /** The CMP configuration the alone-runs execute under. */
    const SystemConfig &base() const { return base_; }

    /** The run options the alone-runs execute under. */
    const RunOptions &options() const { return options_; }

  private:
    double computeAlone(const std::string &profile_name,
                        std::uint32_t core, std::uint64_t mix_seed) const;

    SystemConfig base_;
    RunOptions options_;
    std::mutex mutex_;
    std::map<std::string, double> cache_;
};

/** Together-run + WS/HS/UF against alone-runs, in one call. */
struct MixEvaluation
{
    RunMetrics metrics;
    MultiCoreMetrics summary;
};

/** MixEvaluation's field table; see common/fields.hh. */
template <fields::Of<MixEvaluation> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("metrics", s.metrics);
    v("summary", s.summary);
}
static_assert(fields::complete<MixEvaluation>());

MixEvaluation evaluateMix(const SystemConfig &config,
                          const workload::Mix &mix,
                          const RunOptions &options, AloneIpcCache &alone,
                          RunStatus *status = nullptr);

// --- parallel sweeps --------------------------------------------------

/** One fully specified point of an experiment sweep. */
struct SweepPoint
{
    SystemConfig config;  ///< policy already applied
    workload::Mix mix;
    RunOptions options;   ///< carries the per-point seed
};

/**
 * SweepPoint's field table; see common/fields.hh. sweepPointKey hashes
 * exactly these rows, so a point's key covers its whole configuration.
 */
template <fields::Of<SweepPoint> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("config", s.config);
    v("mix", s.mix);
    v("options", s.options);
}
static_assert(fields::complete<SweepPoint>());

/** Short human-readable identification of a sweep point. */
std::string describePoint(const SweepPoint &point);

/**
 * Per-point execution status. A sweep never aborts because one point
 * misbehaved: every point carries its own outcome.
 */
enum class PointStatus : std::uint8_t
{
    Ok,        ///< converged; the value is a full result
    Truncated, ///< hit the max_cycles cap; the value holds partial stats
    Failed,    ///< threw (bad config, ...); the value is default-empty
};

/** "ok" / "truncated" / "failed". */
const char *toString(PointStatus status);

/** Outcome + diagnostic of one executed sweep point. */
struct PointOutcome
{
    PointStatus status = PointStatus::Ok;
    std::string detail; ///< why, for Truncated/Failed; empty for Ok

    /**
     * Executions this point took: 1 for a normal run, >1 when the
     * process pool retried it after worker deaths, 0 when it never ran
     * in this process (journal replay, or interrupted before dispatch).
     * Not persisted in the journal (it describes this run, not the
     * result).
     */
    std::uint32_t attempts = 1;

    /**
     * Diagnostic of the last *failed* attempt when attempts were
     * retried (e.g. "killed by signal 9 (Killed)"); distinguishes
     * "failed once, succeeded on retry" from clean first-try results.
     */
    std::string last_error;

    bool ok() const { return status == PointStatus::Ok; }
};

/**
 * PointOutcome's field table; see common/fields.hh. attempts and
 * last_error have no row: they describe how this process ran the point,
 * not its result, so the journal does not store them and the
 * supervisor fills them in itself.
 */
template <fields::Of<PointOutcome> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("status", s.status);
    v("detail", s.detail);
}
static_assert(fields::complete<PointOutcome>(/*unlisted=*/2));

/**
 * A per-point sweep result: the computed value plus the outcome that
 * says how far it can be trusted. Failed points carry a
 * default-constructed value; Truncated points carry the partial
 * (frozen-at-cap) metrics.
 */
template <typename T>
struct Result
{
    T value{};
    PointOutcome outcome;

    bool ok() const { return outcome.ok(); }
};

/**
 * Result<T>'s field table; see common/fields.hh. The constraint
 * recovers T from the member's declared type.
 */
template <typename S, typename V>
    requires fields::Of<S, Result<decltype(S::value)>>
constexpr void
forEachField(S &s, V &&v)
{
    v("value", s.value);
    v("outcome", s.outcome);
}
static_assert(fields::complete<Result<RunMetrics>>());
static_assert(fields::complete<Result<MixEvaluation>>());

/**
 * Run one sweep point: @p fn receives a RunStatus out-param and returns
 * the point's value. A cycle-cap truncation becomes a Truncated outcome
 * and an exception a Failed one with a default value, each with its
 * diagnostic. Shared by the in-process sweeps and the worker process.
 */
template <typename T, typename Fn>
Result<T>
executePoint(Fn &&fn)
{
    Result<T> result;
    try {
        RunStatus status;
        result.value = fn(&status);
        if (!status.converged()) {
            result.outcome.status = PointStatus::Truncated;
            result.outcome.detail = status.detail();
        }
    } catch (const std::exception &e) {
        result.value = T{};
        result.outcome.status = PointStatus::Failed;
        result.outcome.detail = e.what();
    } catch (...) {
        result.value = T{};
        result.outcome.status = PointStatus::Failed;
        result.outcome.detail = "unknown exception";
    }
    return result;
}

/**
 * Evaluate every point across @p runner; results are ordered like
 * @p points. The alone cache is prewarmed for every distinct (mix,
 * seed) slot first, so the sweep jobs themselves never miss.
 *
 * Fault tolerance: a point that throws or fails to converge records a
 * Failed/Truncated outcome with a diagnostic; the remaining points
 * still run. Nothing is thrown for per-point failures.
 *
 * @param journal when non-null, points whose key is already recorded
 *        replay the stored result (bit-identical) instead of running,
 *        and freshly computed points are appended for future resumes.
 */
std::vector<Result<MixEvaluation>>
evaluateSweep(const std::vector<SweepPoint> &points, AloneIpcCache &alone,
              ParallelExperimentRunner &runner,
              SweepJournal *journal = nullptr);

/**
 * Run (no WS/HS/UF summary, no alone-runs needed) every point across
 * @p runner; results ordered like @p points. Same fault-tolerance and
 * journal contract as evaluateSweep.
 */
std::vector<Result<RunMetrics>>
runSweep(const std::vector<SweepPoint> &points,
         ParallelExperimentRunner &runner, SweepJournal *journal = nullptr);

} // namespace padc::sim

#endif // PADC_SIM_EXPERIMENT_HH
