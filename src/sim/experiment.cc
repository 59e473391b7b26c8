#include "sim/experiment.hh"

#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "telemetry/profiler.hh"
#include "workload/generator.hh"

namespace padc::sim
{

std::string
policyLabel(PolicySetup setup)
{
    switch (setup) {
      case PolicySetup::NoPref: return "no-pref";
      case PolicySetup::DemandFirst: return "demand-first";
      case PolicySetup::DemandPrefEqual: return "demand-pref-equal";
      case PolicySetup::PrefetchFirst: return "prefetch-first";
      case PolicySetup::ApsOnly: return "aps-only";
      case PolicySetup::Padc: return "aps-apd (PADC)";
      case PolicySetup::PadcRank: return "PADC-rank";
      case PolicySetup::ApsNoUrgent: return "aps-no-urgent";
      case PolicySetup::PadcNoUrgent: return "aps-apd-no-urgent";
      case PolicySetup::ApdOnly: return "demand-first-apd";
    }
    return "unknown";
}

SystemConfig
applyPolicy(SystemConfig base, PolicySetup setup)
{
    base.prefetch_enabled = true;
    base.sched.apd_enabled = false;
    base.sched.urgency_enabled = true;
    base.sched.ranking_enabled = false;

    switch (setup) {
      case PolicySetup::NoPref:
        base.prefetch_enabled = false;
        base.sched.kind = SchedPolicyKind::FrFcfs;
        break;
      case PolicySetup::DemandFirst:
        base.sched.kind = SchedPolicyKind::DemandFirst;
        break;
      case PolicySetup::DemandPrefEqual:
        base.sched.kind = SchedPolicyKind::FrFcfs;
        break;
      case PolicySetup::PrefetchFirst:
        base.sched.kind = SchedPolicyKind::PrefetchFirst;
        break;
      case PolicySetup::ApsOnly:
        base.sched.kind = SchedPolicyKind::Aps;
        break;
      case PolicySetup::Padc:
        base.sched.kind = SchedPolicyKind::Aps;
        base.sched.apd_enabled = true;
        break;
      case PolicySetup::PadcRank:
        base.sched.kind = SchedPolicyKind::Aps;
        base.sched.apd_enabled = true;
        base.sched.ranking_enabled = true;
        break;
      case PolicySetup::ApsNoUrgent:
        base.sched.kind = SchedPolicyKind::Aps;
        base.sched.urgency_enabled = false;
        break;
      case PolicySetup::PadcNoUrgent:
        base.sched.kind = SchedPolicyKind::Aps;
        base.sched.apd_enabled = true;
        base.sched.urgency_enabled = false;
        break;
      case PolicySetup::ApdOnly:
        base.sched.kind = SchedPolicyKind::DemandFirst;
        base.sched.apd_enabled = true;
        break;
    }
    return base;
}

RunMetrics
runMix(const SystemConfig &config, const workload::Mix &mix,
       const RunOptions &options, RunStatus *status)
{
    if (mix.size() != config.num_cores) {
        throw std::invalid_argument(
            "runMix: mix has " + std::to_string(mix.size()) +
            " profiles for a " + std::to_string(config.num_cores) +
            "-core configuration");
    }
    ConfigErrors mix_errors;
    if (!workload::validateMix(mix, &mix_errors))
        throw std::invalid_argument("runMix: " + mix_errors.str());

    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::unique_ptr<System> system;
    {
        telemetry::WallProfiler::Scope scope(
            telemetry::ProfilePhase::Build);
        std::vector<core::TraceSource *> sources;
        for (std::uint32_t c = 0; c < config.num_cores; ++c) {
            traces.push_back(
                workload::makeTraceSource(mix, c, options.mix_seed));
            sources.push_back(traces.back().get());
        }
        system = std::make_unique<System>(config, std::move(sources));
    }

    RunStatus run_status;
    {
        telemetry::WallProfiler::Scope scope(
            telemetry::ProfilePhase::Simulate);
        run_status = system->run(options.instructions, options.max_cycles,
                                 options.warmup);
    }
    if (status != nullptr)
        *status = run_status;

    telemetry::WallProfiler::Scope scope(telemetry::ProfilePhase::Collect);
    return collectMetrics(*system);
}

AloneIpcCache::AloneIpcCache(SystemConfig base, RunOptions options)
    : base_(std::move(base)), options_(options)
{
}

double
AloneIpcCache::ipcAlone(const std::string &profile_name, std::uint32_t core,
                        std::uint64_t mix_seed)
{
    // The alone IPC depends on the profile and its per-(mix, core) trace
    // seed; key on all three so identical profiles across cores reuse
    // the entry only when the generated trace is identical.
    const std::string key = profile_name + "#" + std::to_string(core) +
                            "#" + std::to_string(mix_seed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
        auto failed = failed_.find(key);
        if (failed != failed_.end())
            throw std::runtime_error(failed->second);
    }
    // Computed outside the lock so concurrent misses on distinct keys
    // overlap; a racing duplicate computes the identical outcome, and
    // emplace keeps whichever insert lands first.
    double ipc = 0.0;
    try {
        ipc = computeAlone(profile_name, core, mix_seed);
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mutex_);
        failed_.emplace(key, e.what());
        throw;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.emplace(key, ipc);
    return ipc;
}

namespace
{

/** A mix and the seed its traces are generated with. */
using MixSeed = std::pair<const workload::Mix *, std::uint64_t>;

/**
 * Fill @p alone for every distinct (profile, core, seed) alone run of
 * @p mixes across @p runner. Strict: rethrow the lowest-index failure
 * (the runner's rule). Otherwise a failing alone run is left to the
 * points that need it, whose own lookup rethrows the remembered
 * failure, and an interrupt stops the rest: those points fail as
 * "interrupted" anyway.
 */
void
warmAlone(AloneIpcCache &alone, const std::vector<MixSeed> &mixes,
          ParallelExperimentRunner &runner, bool strict)
{
    using Slot = std::tuple<std::string, std::uint32_t, std::uint64_t>;
    std::set<Slot> seen;
    std::vector<Slot> slots;
    for (const auto &[mix, seed] : mixes) {
        for (std::uint32_t c = 0; c < mix->size(); ++c) {
            if (seen.insert({(*mix)[c], c, seed}).second)
                slots.push_back({(*mix)[c], c, seed});
        }
    }
    const auto run = [&](std::size_t k) {
        const auto &[profile, core, seed] = slots[k];
        alone.ipcAlone(profile, core, seed);
    };
    if (strict) {
        runner.forEach(slots.size(), run);
        return;
    }
    runner.forEach(slots.size(), [&](std::size_t k) {
        if (interruptRequested())
            return;
        try {
            run(k);
        } catch (...) {
            // The cache remembers the failure; each point that needs
            // this run rethrows it from its own lookup.
        }
    });
}

} // namespace

void
AloneIpcCache::prewarm(const std::vector<workload::Mix> &mixes,
                       std::uint64_t base_seed,
                       ParallelExperimentRunner &runner)
{
    std::vector<MixSeed> seeded;
    for (std::size_t i = 0; i < mixes.size(); ++i)
        seeded.push_back({&mixes[i], base_seed + i});
    warmAlone(*this, seeded, runner, /*strict=*/true);
}

double
AloneIpcCache::computeAlone(const std::string &profile_name,
                            std::uint32_t core,
                            std::uint64_t mix_seed) const
{
    telemetry::WallProfiler::Scope scope(telemetry::ProfilePhase::Alone);
    // Alone methodology (Section 5.2): demand-first policy, application
    // on one core of the CMP, other cores idle. We emulate idle cores
    // with a compute-only spin trace confined to a single line.
    SystemConfig cfg = applyPolicy(base_, PolicySetup::DemandFirst);

    // Build the mix-placed trace for the target core (the same seed
    // and address base it has in the mix), then run it alone.
    workload::Mix dummy_mix(base_.num_cores, profile_name);
    std::unique_ptr<core::TraceSource> app_trace =
        workload::makeTraceSource(dummy_mix, core, mix_seed);

    std::vector<std::unique_ptr<core::VectorTrace>> idle_traces;
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        if (c == core % cfg.num_cores) {
            sources.push_back(app_trace.get());
        } else {
            core::TraceOp spin;
            spin.compute_gap = 1000;
            spin.addr = (static_cast<Addr>(c) << 40) | 0x100;
            spin.pc = 0x500000 + c * 16;
            spin.is_load = true;
            idle_traces.push_back(std::make_unique<core::VectorTrace>(
                std::vector<core::TraceOp>{spin}));
            sources.push_back(idle_traces.back().get());
        }
    }

    System system(cfg, std::move(sources));
    const RunStatus status = system.run(
        options_.instructions, options_.max_cycles, options_.warmup);
    // A truncated alone run would normalise every point that needs it
    // by a partial IPC; fail those points instead.
    if (!status.converged()) {
        throw std::runtime_error(
            "alone run of " + profile_name + " on core " +
            std::to_string(core) + ", seed " + std::to_string(mix_seed) +
            ": " + status.detail());
    }
    const RunMetrics metrics = collectMetrics(system);
    return metrics.cores[core % cfg.num_cores].ipc;
}

MixEvaluation
evaluateMix(const SystemConfig &config, const workload::Mix &mix,
            const RunOptions &options, AloneIpcCache &alone,
            RunStatus *status)
{
    MixEvaluation eval;
    eval.metrics = runMix(config, mix, options, status);
    std::vector<double> ipc_alone;
    for (std::uint32_t c = 0; c < config.num_cores; ++c)
        ipc_alone.push_back(alone.ipcAlone(mix[c], c, options.mix_seed));
    eval.summary = multiCoreMetrics(eval.metrics, ipc_alone);
    return eval;
}

std::string
describePoint(const SweepPoint &point)
{
    std::string out = toString(point.config.sched.kind);
    if (point.config.sched.apd_enabled)
        out += "+apd";
    if (!point.config.prefetch_enabled)
        out += " no-pref";
    out += ", mix [";
    for (std::size_t c = 0; c < point.mix.size(); ++c) {
        if (c > 0)
            out += " ";
        out += point.mix[c];
    }
    out += "], seed " + std::to_string(point.options.mix_seed);
    return out;
}

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok: return "ok";
      case PointStatus::Truncated: return "truncated";
      case PointStatus::Failed: return "failed";
    }
    return "unknown";
}

template <typename T>
std::vector<Result<T>>
runPoints(const std::vector<SweepPoint> &points, SweepJournal *journal,
          const SweepExecutor<T> &execute)
{
    obs::FleetMonitor *monitor = obs::activeMonitor();
    std::vector<Result<T>> results(points.size());
    std::vector<std::uint64_t> keys(journal != nullptr ? points.size() : 0);
    const FinishPoint<T> finish = [&](std::size_t i, FinishedPoint<T> done) {
        Result<T> &result = results[i] = std::move(done.result);
        PointOutcome &outcome = result.outcome;
        if (done.ending == obs::PointEnding::Ran) {
            if (journal != nullptr)
                journal->record(keys[i], result);
            notePointCompleted();
        } else if (done.ending == obs::PointEnding::Interrupted) {
            // Did not run: never journaled, so a resume retries it.
            result.value = T{};
            outcome.status = PointStatus::Failed;
            outcome.detail = kInterruptedDetail;
        }
        if (monitor != nullptr)
            monitor->pointFinished(done.ending);
    };

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (journal != nullptr) {
            keys[i] = sweepPointKey(points[i]);
            FinishedPoint<T> replay;
            if (journal->lookup(keys[i], &replay.result)) {
                replay.result.outcome.attempts = 0;
                replay.ending = obs::PointEnding::Replayed;
                finish(i, std::move(replay));
                continue;
            }
        }
        todo.push_back(i);
    }
    execute(todo, finish);
    return results;
}

template std::vector<Result<RunMetrics>>
runPoints(const std::vector<SweepPoint> &, SweepJournal *,
          const SweepExecutor<RunMetrics> &);
template std::vector<Result<MixEvaluation>>
runPoints(const std::vector<SweepPoint> &, SweepJournal *,
          const SweepExecutor<MixEvaluation> &);

namespace
{

/**
 * The in-thread executor: each point i of @p todo runs @p fn(i, status)
 * through executePoint on @p runner, unless a stop came first.
 */
template <typename T, typename Fn>
void
runInThreads(const std::vector<std::size_t> &todo,
             ParallelExperimentRunner &runner, const FinishPoint<T> &finish,
             Fn &&fn)
{
    runner.forEach(todo.size(), [&](std::size_t k) {
        FinishedPoint<T> done;
        if (interruptRequested()) {
            done.ending = obs::PointEnding::Interrupted;
            done.result.outcome.attempts = 0;
        } else {
            done.result = executePoint<T>(
                [&](RunStatus *status) { return fn(todo[k], status); });
        }
        finish(todo[k], std::move(done));
    });
}

} // namespace

std::vector<Result<MixEvaluation>>
evaluateSweep(const std::vector<SweepPoint> &points, AloneIpcCache &alone,
              ParallelExperimentRunner &runner, SweepJournal *journal)
{
    return runPoints<MixEvaluation>(
        points, journal, [&](const auto &todo, const auto &finish) {
            // Fill the alone cache for exactly the points to run, so
            // their jobs below only hit it.
            std::vector<MixSeed> mixes;
            for (const std::size_t i : todo)
                mixes.push_back({&points[i].mix, points[i].options.mix_seed});
            warmAlone(alone, mixes, runner, /*strict=*/false);
            runInThreads<MixEvaluation>(
                todo, runner, finish, [&](std::size_t i, RunStatus *status) {
                    return evaluateMix(points[i].config, points[i].mix,
                                       points[i].options, alone, status);
                });
        });
}

std::vector<Result<RunMetrics>>
runSweep(const std::vector<SweepPoint> &points,
         ParallelExperimentRunner &runner, SweepJournal *journal)
{
    return runPoints<RunMetrics>(
        points, journal, [&](const auto &todo, const auto &finish) {
            runInThreads<RunMetrics>(
                todo, runner, finish, [&](std::size_t i, RunStatus *status) {
                    return runMix(points[i].config, points[i].mix,
                                  points[i].options, status);
                });
        });
}

} // namespace padc::sim
