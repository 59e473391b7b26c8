#include "sim/experiment.hh"

#include <iomanip>
#include <iostream>
#include <memory>
#include <stdexcept>

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
    }
    // Computed outside the lock so concurrent misses on distinct keys
    // overlap; a racing duplicate computes the identical value, and
    // emplace keeps whichever insert lands first.
    const double ipc = computeAlone(profile_name, core, mix_seed);
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.emplace(key, ipc);
    return ipc;
}

void
AloneIpcCache::prewarm(const std::vector<workload::Mix> &mixes,
                       std::uint64_t base_seed,
                       ParallelExperimentRunner &runner)
{
    struct Slot
    {
        std::string profile;
        std::uint32_t core;
        std::uint64_t seed;
    };
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        for (std::uint32_t c = 0; c < mixes[i].size(); ++c)
            slots.push_back({mixes[i][c], c, base_seed + i});
    }
    runner.forEach(slots.size(), [&](std::size_t i) {
        ipcAlone(slots[i].profile, slots[i].core, slots[i].seed);
    });
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

    // Build the mix-placed trace for the target core, then run it
    // alone. makeTraceSource resolves trace-backed profiles to replays
    // and synthetic ones to the generator, so alone-IPC normalization
    // works identically for captured traces.
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

namespace
{

/**
 * Execute one sweep point under the fault-tolerance contract: serve it
 * from the journal when recorded, otherwise run it through
 * executePoint, and checkpoint the finished point.
 */
template <typename T, typename Fn>
Result<T>
runPoint(SweepJournal *journal, const SweepPoint &point, Fn &&fn)
{
    Result<T> result;
    std::uint64_t key = 0;
    if (journal != nullptr) {
        key = sweepPointKey(point);
        if (journal->lookup(key, &result)) {
            result.outcome.attempts = 0; // replayed, never ran here
            return result;
        }
    }
    // Graceful stop: points not yet started when the interrupt arrived
    // complete as Failed "interrupted" and are NOT journaled, so a
    // resumed run retries them.
    if (interruptRequested()) {
        result.outcome.status = PointStatus::Failed;
        result.outcome.detail = kInterruptedDetail;
        result.outcome.attempts = 0;
        return result;
    }
    result = executePoint<T>(fn);
    if (journal != nullptr)
        journal->record(key, result);
    notePointCompleted();
    return result;
}

} // namespace

std::vector<Result<MixEvaluation>>
evaluateSweep(const std::vector<SweepPoint> &points, AloneIpcCache &alone,
              ParallelExperimentRunner &runner, SweepJournal *journal)
{
    // Fill the alone cache first so the sweep jobs below are pure cache
    // hits; the alone-runs themselves fan out across the pool too.
    // Prewarm failures are deliberately ignored here: a failing
    // alone-run resurfaces at every point that needs it, where it is
    // recorded as that point's Failed outcome.
    {
        struct Key
        {
            workload::Mix mix;
            std::uint64_t seed;
        };
        std::vector<Key> keys;
        for (const auto &point : points) {
            // Journaled points replay without alone-runs; don't prewarm
            // for them (that would undo most of a resume's savings).
            if (journal != nullptr &&
                journal->containsEval(sweepPointKey(point))) {
                continue;
            }
            bool seen = false;
            for (const auto &key : keys) {
                seen = key.seed == point.options.mix_seed &&
                       key.mix == point.mix;
                if (seen)
                    break;
            }
            if (!seen)
                keys.push_back({point.mix, point.options.mix_seed});
        }
        runner.tryForEach(keys.size(), [&](std::size_t i) {
            if (interruptRequested())
                return; // the points will fail as "interrupted" anyway
            for (std::uint32_t c = 0; c < keys[i].mix.size(); ++c)
                alone.ipcAlone(keys[i].mix[c], c, keys[i].seed);
        });
    }
    return runner.map<Result<MixEvaluation>>(
        points.size(), [&](std::size_t i) {
            Result<MixEvaluation> result = runPoint<MixEvaluation>(
                journal, points[i], [&](RunStatus *status) {
                    return evaluateMix(points[i].config, points[i].mix,
                                       points[i].options, alone, status);
                });
            if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
                monitor->pointFinished(i, toString(result.outcome.status),
                                       result.outcome.attempts,
                                       result.outcome.detail);
            }
            return result;
        });
}

std::vector<Result<RunMetrics>>
runSweep(const std::vector<SweepPoint> &points,
         ParallelExperimentRunner &runner, SweepJournal *journal)
{
    return runner.map<Result<RunMetrics>>(
        points.size(), [&](std::size_t i) {
            Result<RunMetrics> result = runPoint<RunMetrics>(
                journal, points[i], [&](RunStatus *status) {
                    return runMix(points[i].config, points[i].mix,
                                  points[i].options, status);
                });
            if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
                monitor->pointFinished(i, toString(result.outcome.status),
                                       result.outcome.attempts,
                                       result.outcome.detail);
            }
            return result;
        });
}

void
printLabel(const std::string &text, int width)
{
    std::cout << std::left << std::setw(width) << text << std::right;
}

void
printCell(double value, int width, int precision)
{
    std::cout << std::setw(width) << std::fixed
              << std::setprecision(precision) << value;
}

void
printHeader(const std::string &label,
            const std::vector<std::string> &columns, int label_width,
            int col_width)
{
    printLabel(label, label_width);
    for (const auto &column : columns)
        std::cout << std::setw(col_width) << column;
    std::cout << '\n';
}

void
endRow()
{
    std::cout << '\n';
}

} // namespace padc::sim
