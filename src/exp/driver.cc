#include "exp/driver.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "exp/json.hh"
#include "exp/registry.hh"
#include "exp/report.hh"
#include "obs/monitor.hh"
#include "obs/status.hh"
#include "sim/interrupt.hh"
#include "sim/procpool.hh"
#include "telemetry/export.hh"
#include "telemetry/profiler.hh"
#include "trace/corpus.hh"
#include "trace/tools.hh"

namespace padc::exp
{

namespace
{

/** 64-bit hash rendered as the fixed-width hex the JSON schema uses. */
std::string
hex16(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
parseUint64(const char *text, std::uint64_t *out)
{
    // strtoull accepts (and wraps) signed input; reject it up front.
    if (text == nullptr || *text == '\0' || text[0] == '-' ||
        text[0] == '+')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = value;
    return true;
}

/**
 * Redirect stdout to /dev/null for the scope (RAII): the structured
 * --format json|csv streams replace the experiments' human-readable
 * rows, which keep printing through printf.
 */
class StdoutSilencer
{
  public:
    explicit StdoutSilencer(bool active)
    {
        if (!active)
            return;
        std::fflush(stdout);
        saved_ = ::dup(::fileno(stdout));
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, ::fileno(stdout));
            ::close(devnull);
        }
    }

    ~StdoutSilencer()
    {
        if (saved_ < 0)
            return;
        std::fflush(stdout);
        ::dup2(saved_, ::fileno(stdout));
        ::close(saved_);
    }

    StdoutSilencer(const StdoutSilencer &) = delete;
    StdoutSilencer &operator=(const StdoutSilencer &) = delete;

  private:
    int saved_ = -1;
};

/** CSV field, quoted when it contains a separator or quote. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
driverUsage()
{
    return "usage: padc <command> [options]\n"
           "\n"
           "commands:\n"
           "  list                     list every registered experiment\n"
           "  run <name|tag|glob>...   run the selected experiments\n"
           "  run --all                run every registered experiment\n"
           "  status <dir>             render the live status.json a\n"
           "                           `run --progress` sweep keeps in\n"
           "                           its --out directory\n"
           "  trace <subcommand>       trace-corpus toolchain (capture,\n"
           "                           convert, info, verify; see\n"
           "                           'padc trace help')\n"
           "  worker                   (internal) crash-isolated sweep\n"
           "                           worker; spawned by --workers\n"
           "  help                     show this message\n"
           "\n"
           "options:\n"
           "  --threads N    worker threads for the sweep pool\n"
           "                 (default: hardware concurrency)\n"
           "  --workers N    run sweeps across N crash-isolated worker\n"
           "                 subprocesses instead of in-process threads\n"
           "                 (0 = off; knobs: PADC_WORKER_ATTEMPTS,\n"
           "                 PADC_WORKER_TIMEOUT_MS, "
           "PADC_RETRY_BACKOFF_MS)\n"
           "  --resume PATH  checkpoint/resume journal\n"
           "  --seed N       override the random-mix seed of seeded "
           "experiments\n"
           "  --format FMT   text | json | csv (default: text)\n"
           "  --out DIR      directory for BENCH_<name>.json files "
           "(default: .)\n"
           "  --corpus DIR   register the trace corpus at DIR "
           "(corpus.json)\n"
           "                 as trace-backed workload profiles before "
           "running\n"
           "  --progress     live sweep observability: a stderr progress\n"
           "                 line (done/total, rate, ETA, retries) plus\n"
           "                 <out>/status.json and <out>/events.jsonl;\n"
           "                 stdout output is unchanged\n"
           "  --timeseries[=PATH]\n"
           "                 record per-interval telemetry (PAR, drop\n"
           "                 threshold, bus util, queues) to a CSV\n"
           "                 (default: <out>/<name>.timeseries.csv)\n"
           "  --trace[=PATH] record request-lifecycle events to a Chrome\n"
           "                 trace-event JSON loadable in Perfetto\n"
           "                 (default: <out>/<name>.trace.json)\n"
           "  --trace-limit N\n"
           "                 events retained per run (default: 1048576)\n"
           "  --json         status: print the raw status.json snapshot\n"
           "                 instead of the text report\n"
           "\n"
           "Every run also writes a machine-readable BENCH_<name>.json\n"
           "(schema padc-bench-result-v1) per experiment into --out.\n";
}

bool
parseDriverArgs(int argc, const char *const *argv, DriverOptions *out,
                std::string *error)
{
    *out = DriverOptions{};
    if (argc < 2) {
        *error = "missing command (try 'padc help')";
        return false;
    }

    const std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        out->command = DriverOptions::Command::Help;
    } else if (command == "list") {
        out->command = DriverOptions::Command::List;
    } else if (command == "run") {
        out->command = DriverOptions::Command::Run;
    } else if (command == "status") {
        out->command = DriverOptions::Command::Status;
    } else {
        *error = "unknown command '" + command + "' (try 'padc help')";
        return false;
    }

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--all") {
            out->all = true;
        } else if (arg == "--threads") {
            const char *text = value();
            std::uint64_t threads = 0;
            if (!parseUint64(text, &threads) || threads == 0 ||
                threads > sim::kMaxThreads) {
                *error = "--threads expects an integer in [1, " +
                         std::to_string(sim::kMaxThreads) + "]";
                return false;
            }
            out->threads = static_cast<unsigned>(threads);
        } else if (arg == "--workers") {
            const char *text = value();
            std::uint64_t workers = 0;
            if (!parseUint64(text, &workers) || workers > 1024) {
                *error = "--workers expects an integer in [0, 1024]";
                return false;
            }
            out->workers = static_cast<unsigned>(workers);
        } else if (arg == "--resume") {
            const char *text = value();
            if (text == nullptr || *text == '\0') {
                *error = "--resume expects a journal path";
                return false;
            }
            out->resume_path = text;
        } else if (arg == "--seed") {
            std::uint64_t seed = 0;
            if (!parseUint64(value(), &seed)) {
                *error = "--seed expects a non-negative integer";
                return false;
            }
            out->seed = seed;
        } else if (arg == "--format") {
            const char *text = value();
            if (text != nullptr && std::strcmp(text, "text") == 0) {
                out->format = DriverOptions::Format::Text;
            } else if (text != nullptr &&
                       std::strcmp(text, "json") == 0) {
                out->format = DriverOptions::Format::Json;
            } else if (text != nullptr && std::strcmp(text, "csv") == 0) {
                out->format = DriverOptions::Format::Csv;
            } else {
                *error = "--format expects text, json, or csv";
                return false;
            }
        } else if (arg == "--out") {
            const char *text = value();
            if (text == nullptr || *text == '\0') {
                *error = "--out expects a directory";
                return false;
            }
            out->out_dir = text;
        } else if (arg == "--corpus") {
            const char *text = value();
            if (text == nullptr || *text == '\0') {
                *error = "--corpus expects a directory";
                return false;
            }
            out->corpus_dir = text;
        } else if (arg == "--progress") {
            out->progress = true;
        } else if (arg == "--json") {
            if (out->command != DriverOptions::Command::Status) {
                *error = "--json only applies to 'status'; use --format "
                         "json for machine-readable output";
                return false;
            }
            out->json = true;
        } else if (arg == "--timeseries") {
            out->timeseries = true;
        } else if (arg.rfind("--timeseries=", 0) == 0) {
            out->timeseries = true;
            out->timeseries_path = arg.substr(std::strlen("--timeseries="));
            if (out->timeseries_path.empty()) {
                *error = "--timeseries= expects a file path";
                return false;
            }
        } else if (arg == "--trace") {
            out->trace = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            out->trace = true;
            out->trace_path = arg.substr(std::strlen("--trace="));
            if (out->trace_path.empty()) {
                *error = "--trace= expects a file path";
                return false;
            }
        } else if (arg == "--trace-limit" ||
                   arg.rfind("--trace-limit=", 0) == 0) {
            const char *text =
                arg == "--trace-limit"
                    ? value()
                    : arg.c_str() + std::strlen("--trace-limit=");
            if (!parseUint64(text, &out->trace_limit)) {
                *error = "--trace-limit expects a non-negative integer";
                return false;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            *error = "unknown option '" + arg + "' (try 'padc help')";
            return false;
        } else if (out->command == DriverOptions::Command::Run) {
            out->selectors.push_back(arg);
        } else if (out->command == DriverOptions::Command::Status &&
                   out->status_dir.empty()) {
            out->status_dir = arg;
        } else {
            *error = "unexpected argument '" + arg + "'";
            return false;
        }
    }

    if (out->command == DriverOptions::Command::Run &&
        out->selectors.empty() && !out->all) {
        *error = "run expects experiment names, tags, globs, or --all";
        return false;
    }
    if (out->command == DriverOptions::Command::Status &&
        out->status_dir.empty()) {
        *error = "status expects the --out directory of a running sweep";
        return false;
    }
    return true;
}

std::string
resultJson(const ExperimentInfo &info, const ExperimentResult &result)
{
    JsonWriter writer;
    writer.beginObject();
    writer.member("schema", "padc-bench-result-v1");
    writer.member("name", info.name);
    writer.member("anchor", info.anchor);
    writer.member("title", info.title);
    writer.beginArray("tags");
    for (const std::string &tag : info.tags)
        writer.element(tag);
    writer.endArray();
    writer.member("config_hash", hex16(result.configHash()));
    writer.member("status", result.status);
    writer.member("detail", result.detail);
    writer.member("interrupted", result.interrupted);
    writer.member("wall_seconds", result.wall_seconds);
    writer.member("sim_cycles", result.simCycles());
    writer.member("sim_cycles_per_sec",
                  result.wall_seconds > 0.0
                      ? static_cast<double>(result.simCycles()) /
                            result.wall_seconds
                      : 0.0);
    writer.beginArray("points");
    for (const PointRecord &point : result.points) {
        writer.beginObject();
        writer.member("key", hex16(point.key));
        writer.member("label", point.label);
        writer.member("status", point.status);
        writer.member("detail", point.detail);
        writer.member("attempts", point.attempts);
        writer.member("last_error", point.last_error);
        writer.member("cycles", static_cast<std::uint64_t>(point.cycles));
        writer.beginObject("metrics");
        for (const auto &[name, value] : point.metrics.entries())
            writer.member(name, value);
        writer.endObject();
        writer.endObject();
    }
    writer.endArray();
    writer.beginObject("scalars");
    for (const auto &[name, value] : result.scalars.entries())
        writer.member(name, value);
    writer.endObject();
    writer.beginObject("profile");
    for (const auto &[name, value] : result.profile.entries())
        writer.member(name, value);
    writer.endObject();
    writer.beginArray("sinks");
    for (const SinkSummary &sink : result.sinks) {
        writer.beginObject();
        writer.member("kind", sink.kind);
        writer.member("path", sink.path);
        writer.member("rows", sink.rows);
        writer.member("dropped", sink.dropped);
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return writer.str();
}

namespace
{

int
listExperiments(const DriverOptions &options)
{
    const auto experiments = ExperimentRegistry::instance().all();
    if (options.format == DriverOptions::Format::Json) {
        JsonWriter writer;
        writer.beginObject();
        writer.member("schema", "padc-experiment-list-v1");
        writer.beginArray("experiments");
        for (const Experiment *experiment : experiments) {
            const ExperimentInfo &info = experiment->info;
            writer.beginObject();
            writer.member("name", info.name);
            writer.member("anchor", info.anchor);
            writer.member("title", info.title);
            writer.member("paper_shape", info.paper_shape);
            writer.beginArray("tags");
            for (const std::string &tag : info.tags)
                writer.element(tag);
            writer.endArray();
            writer.endObject();
        }
        writer.endArray();
        writer.endObject();
        std::printf("%s\n", writer.str().c_str());
        return 0;
    }

    for (const Experiment *experiment : experiments) {
        const ExperimentInfo &info = experiment->info;
        std::string tags;
        for (const std::string &tag : info.tags) {
            tags += tags.empty() ? "" : ",";
            tags += tag;
        }
        std::printf("%-16s %-28s %s  [%s]\n", info.name.c_str(),
                    info.anchor.c_str(), info.title.c_str(),
                    tags.c_str());
    }
    return 0;
}

/** Resolve the run selectors; empty return = a selector failed. */
std::vector<const Experiment *>
selectExperiments(const DriverOptions &options, bool *ok)
{
    const ExperimentRegistry &registry = ExperimentRegistry::instance();
    *ok = true;
    if (options.all)
        return registry.all();

    std::vector<const Experiment *> selected;
    for (const std::string &selector : options.selectors) {
        const auto matches = registry.match(selector);
        if (matches.empty()) {
            std::fprintf(stderr, "padc: unknown experiment '%s'",
                         selector.c_str());
            const std::string suggestion =
                registry.closestName(selector);
            if (!suggestion.empty())
                std::fprintf(stderr, " (did you mean '%s'?)",
                             suggestion.c_str());
            std::fprintf(stderr, "\n");
            *ok = false;
            return {};
        }
        for (const Experiment *match : matches) {
            if (std::find(selected.begin(), selected.end(), match) ==
                selected.end())
                selected.push_back(match);
        }
    }
    return selected;
}

/**
 * Fail early when an explicit telemetry output path points into a
 * directory that does not exist: better a clear pre-run diagnostic
 * than minutes of simulation followed by a failed fopen.
 */
bool
checkSinkPath(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty() || std::filesystem::is_directory(parent))
        return true;
    std::fprintf(stderr,
                 "padc: %s directory '%s' does not exist\n", flag,
                 parent.string().c_str());
    return false;
}

/**
 * Export one experiment's telemetry captures and record the written
 * files in the result. Export failures mark the run failed rather than
 * silently losing the requested artifacts.
 */
void
writeSinks(const DriverOptions &options, const ExperimentInfo &info,
           ExperimentContext &context, ExperimentResult &result,
           bool *any_failed)
{
    const auto emit = [&](const char *kind, const std::string &explicit_path,
                          const std::string &default_name,
                          const std::string &text, std::uint64_t rows,
                          std::uint64_t dropped) {
        const std::string path =
            explicit_path.empty()
                ? (std::filesystem::path(options.out_dir) / default_name)
                      .string()
                : explicit_path;
        std::string error;
        if (!telemetry::writeTextFile(path, text, &error)) {
            std::fprintf(stderr, "padc: %s\n", error.c_str());
            *any_failed = true;
            return;
        }
        result.sinks.push_back({kind, path, rows, dropped});
    };

    if (options.timeseries) {
        std::vector<telemetry::LabeledSeries> series;
        std::uint64_t rows = 0;
        std::uint64_t dropped = 0;
        for (const auto &capture : context.captures()) {
            const telemetry::IntervalSampler *sampler =
                capture.collector->sampler();
            series.push_back({capture.label, sampler});
            if (sampler != nullptr) {
                rows += sampler->pushed() - sampler->dropped();
                dropped += sampler->dropped();
            }
        }
        emit("timeseries", options.timeseries_path,
             info.name + ".timeseries.csv", telemetry::timeseriesCsv(series),
             rows, dropped);
    }
    if (options.trace) {
        std::vector<telemetry::LabeledTrace> traces;
        std::uint64_t rows = 0;
        std::uint64_t dropped = 0;
        for (const auto &capture : context.captures()) {
            const telemetry::TraceBuffer *trace =
                capture.collector->trace();
            traces.push_back({capture.label, trace});
            if (trace != nullptr) {
                rows += trace->events().size();
                dropped += trace->dropped();
            }
        }
        emit("trace", options.trace_path, info.name + ".trace.json",
             telemetry::chromeTraceJson(traces), rows, dropped);
    }
}

/**
 * Snapshot the process-wide WallProfiler into @p result's profile block:
 * build/simulate/collect seconds and the event-loop figures.
 */
void
recordRunProfile(ExperimentResult &result)
{
    const telemetry::WallProfiler::Snapshot snap =
        telemetry::WallProfiler::instance().snapshot();
    result.profile.add("build_seconds",
                       snap.seconds(telemetry::ProfilePhase::Build));
    result.profile.add("simulate_seconds",
                       snap.seconds(telemetry::ProfilePhase::Simulate));
    result.profile.add("collect_seconds",
                       snap.seconds(telemetry::ProfilePhase::Collect));
    result.profile.add("alone_seconds",
                       snap.seconds(telemetry::ProfilePhase::Alone));
    // Event-driven main loop: how much simulated time was jumped over
    // rather than stepped. The caller sets wall_seconds before this
    // runs, so the throughput figure tracks the same run.
    result.profile.add("sim_cycles_per_sec",
                       result.wall_seconds > 0.0
                           ? static_cast<double>(result.simCycles()) /
                                 result.wall_seconds
                           : 0.0);
    result.profile.add("skipped_cycles",
                       static_cast<double>(snap.skipped_cycles));
    result.profile.add("event_jumps",
                       static_cast<double>(snap.event_jumps));
    result.profile.add("landed_cycles",
                       static_cast<double>(snap.landed_cycles));
    result.profile.add("core_ticks", static_cast<double>(snap.core_ticks));
}

/**
 * Drain the process pool's per-experiment profile window into the
 * BENCH JSON `profile` block. Every member is additive: the schema's
 * profile object is open, and default (no --workers) documents do not
 * contain any of these.
 */
void
recordPoolProfile(sim::ProcessPool &pool, ExperimentResult &result)
{
    const sim::ProcessPool::PoolProfile profile = pool.drainProfile();
    result.profile.add("pool_workers",
                       static_cast<double>(profile.workers.size()));
    result.profile.add("pool_tasks", static_cast<double>(profile.tasks));
    result.profile.add("pool_replayed",
                       static_cast<double>(profile.replayed));
    result.profile.add("pool_retries",
                       static_cast<double>(profile.retries));
    result.profile.add("pool_respawns",
                       static_cast<double>(profile.respawns));
    result.profile.add("pool_quarantined",
                       static_cast<double>(profile.quarantined));
    result.profile.add("pool_timeout_kills",
                       static_cast<double>(profile.timeout_kills));
    result.profile.add("pool_exec_seconds", profile.exec_seconds);
    result.profile.add("pool_sim_cycles_per_sec",
                       profile.exec_seconds > 0.0
                           ? static_cast<double>(profile.sim_cycles) /
                                 profile.exec_seconds
                           : 0.0);
    const StatSet task_ms = profile.task_ms.toStatSet("pool_task_ms");
    for (const auto &[name, value] : task_ms.entries())
        result.profile.add(name, value);
    for (std::size_t slot = 0; slot < profile.workers.size(); ++slot) {
        const sim::ProcessPool::WorkerSlotProfile &worker =
            profile.workers[slot];
        const std::string prefix =
            "pool_worker" + std::to_string(slot) + "_";
        result.profile.add(prefix + "tasks",
                           static_cast<double>(worker.tasks));
        result.profile.add(prefix + "dispatches",
                           static_cast<double>(worker.dispatches));
        result.profile.add(prefix + "kills",
                           static_cast<double>(worker.kills));
        result.profile.add(prefix + "sim_cycles",
                           static_cast<double>(worker.sim_cycles));
        result.profile.add(prefix + "exec_seconds", worker.exec_seconds);
    }
}

/**
 * `padc status <dir>`: render the status.json a `run --progress` sweep
 * maintains. Works mid-sweep (the writer atomic-renames complete
 * snapshots, so this never sees a torn document) and after the sweep —
 * or its supervisor — died, where the last snapshot is exactly what an
 * operator wants to see.
 */
int
statusCommand(const DriverOptions &options)
{
    const std::filesystem::path path =
        std::filesystem::is_directory(options.status_dir)
            ? std::filesystem::path(options.status_dir) /
                  obs::kStatusFileName
            : std::filesystem::path(options.status_dir);
    obs::SweepStatus status;
    std::string error;
    if (!obs::loadStatusFile(path.string(), &status, &error)) {
        std::error_code exists_error;
        if (!std::filesystem::exists(path, exists_error)) {
            // The common case is simply "nothing ever ran here": say
            // that, not a raw open(2) failure.
            std::fprintf(stderr,
                         "padc: no %s in '%s' -- no sweep has run here "
                         "yet. Start one with `padc run --progress "
                         "--out <dir>`.\n",
                         obs::kStatusFileName, options.status_dir.c_str());
        } else {
            std::fprintf(stderr, "padc: %s\n", error.c_str());
        }
        return 1;
    }
    if (options.json)
        std::printf("%s\n", obs::formatStatus(status).c_str());
    else
        std::printf("%s", obs::renderStatusReport(status).c_str());
    return 0;
}

/**
 * Owns the --progress FleetMonitor for the scope of a run: installs it
 * as the process-global observer and clears the global before the
 * monitor is destroyed (driverMain is a library function; tests call it
 * repeatedly in-process).
 */
class MonitorGuard
{
  public:
    MonitorGuard(const DriverOptions &options)
    {
        if (!options.progress)
            return;
        monitor_ = std::make_unique<obs::FleetMonitor>(options.out_dir);
        obs::setActiveMonitor(monitor_.get());
    }

    ~MonitorGuard()
    {
        if (monitor_ != nullptr)
            obs::setActiveMonitor(nullptr);
    }

    MonitorGuard(const MonitorGuard &) = delete;
    MonitorGuard &operator=(const MonitorGuard &) = delete;

  private:
    std::unique_ptr<obs::FleetMonitor> monitor_;
};

/**
 * Entry point of the internal `padc worker` subcommand: the supervisor
 * spawns `/proc/self/exe worker [--corpus DIR]` with the task/result
 * pipes staged on fixed fds. The worker only needs the corpus
 * registered (trace-backed profiles resolve by name inside shipped
 * sweep points); everything else arrives over the wire.
 */
int
workerEntry(int argc, const char *const *argv)
{
    std::string corpus_dir;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
            corpus_dir = argv[++i];
        } else {
            std::fprintf(stderr, "padc worker: unknown argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (!corpus_dir.empty()) {
        trace::Corpus corpus;
        std::string error;
        if (!trace::loadCorpus(corpus_dir, &corpus, &error) ||
            !trace::registerCorpus(corpus, &error)) {
            std::fprintf(stderr, "padc worker: %s\n", error.c_str());
            return 2;
        }
    }
    return sim::ProcessPool::workerMain(sim::kWorkerTaskFd,
                                        sim::kWorkerResultFd);
}

/**
 * First SIGINT/SIGTERM requests a graceful stop (finish the in-flight
 * points, flush the journal, write partial BENCH files); a second one
 * exits immediately for operators who really mean it.
 */
volatile sig_atomic_t stop_signal_seen = 0;

void
onStopSignal(int)
{
    if (stop_signal_seen != 0)
        _exit(130);
    stop_signal_seen = 1;
    sim::requestInterrupt();
}

/**
 * Installs the graceful-stop handler on SIGINT/SIGTERM for the scope of
 * a `run` invocation and restores the previous handlers on the way out
 * (driverMain is a library function; tests call it repeatedly
 * in-process).
 */
class StopSignalGuard
{
  public:
    StopSignalGuard()
    {
        stop_signal_seen = 0;
        struct sigaction action = {};
        action.sa_handler = &onStopSignal;
        sigemptyset(&action.sa_mask);
        action.sa_flags = SA_RESTART;
        ::sigaction(SIGINT, &action, &old_int_);
        ::sigaction(SIGTERM, &action, &old_term_);
    }

    ~StopSignalGuard()
    {
        ::sigaction(SIGINT, &old_int_, nullptr);
        ::sigaction(SIGTERM, &old_term_, nullptr);
    }

    StopSignalGuard(const StopSignalGuard &) = delete;
    StopSignalGuard &operator=(const StopSignalGuard &) = delete;

  private:
    struct sigaction old_int_ = {};
    struct sigaction old_term_ = {};
};

void
printCsv(const std::vector<const Experiment *> &experiments,
         const std::vector<ExperimentResult> &results)
{
    std::printf(
        "experiment,point,label,key,status,cycles,metric,value\n");
    // An interrupted run has results only for the experiments that
    // started before the stop; never index experiments past that.
    for (std::size_t e = 0; e < results.size(); ++e) {
        const std::string &name = experiments[e]->info.name;
        const ExperimentResult &result = results[e];
        for (std::size_t p = 0; p < result.points.size(); ++p) {
            const PointRecord &point = result.points[p];
            for (const auto &[metric, value] : point.metrics.entries()) {
                std::printf(
                    "%s,%zu,%s,%s,%s,%llu,%s,%s\n", name.c_str(), p,
                    csvField(point.label).c_str(),
                    hex16(point.key).c_str(), point.status.c_str(),
                    static_cast<unsigned long long>(point.cycles),
                    csvField(metric).c_str(),
                    jsonNumber(value).c_str());
            }
        }
    }
}

} // namespace

int
driverMain(int argc, const char *const *argv)
{
    // The trace toolchain has its own grammar; hand it the raw argv
    // before the experiment-driver parse. Same for the internal worker
    // subcommand the process-pool supervisor spawns.
    if (argc >= 2 && std::strcmp(argv[1], "trace") == 0)
        return trace::traceToolMain(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "worker") == 0)
        return workerEntry(argc, argv);

    DriverOptions options;
    std::string error;
    if (!parseDriverArgs(argc, argv, &options, &error)) {
        std::fprintf(stderr, "padc: %s\n%s", error.c_str(),
                     driverUsage().c_str());
        return 2;
    }

    switch (options.command) {
      case DriverOptions::Command::Help:
        std::printf("%s", driverUsage().c_str());
        return 0;
      case DriverOptions::Command::List:
        return listExperiments(options);
      case DriverOptions::Command::Status:
        return statusCommand(options);
      case DriverOptions::Command::Run:
        break;
    }

    if (!options.corpus_dir.empty()) {
        trace::Corpus corpus;
        if (!trace::loadCorpus(options.corpus_dir, &corpus, &error) ||
            !trace::registerCorpus(corpus, &error)) {
            std::fprintf(stderr, "padc: %s\n", error.c_str());
            return 2;
        }
    }

    bool selectors_ok = false;
    const auto experiments = selectExperiments(options, &selectors_ok);
    if (!selectors_ok)
        return 2;

    // One explicit telemetry file cannot hold several experiments'
    // output; require default (per-experiment) naming in that case.
    if (experiments.size() > 1 && (!options.trace_path.empty() ||
                                   !options.timeseries_path.empty())) {
        std::fprintf(stderr,
                     "padc: explicit --trace=/--timeseries= paths only "
                     "work with a single selected experiment (%zu "
                     "selected); use the flag without a path for "
                     "per-experiment files\n",
                     experiments.size());
        return 2;
    }
    if (!checkSinkPath(options.trace_path, "--trace") ||
        !checkSinkPath(options.timeseries_path, "--timeseries")) {
        return 2;
    }

    std::error_code dir_error;
    std::filesystem::create_directories(options.out_dir, dir_error);
    if (dir_error) {
        std::fprintf(stderr, "padc: cannot create --out '%s': %s\n",
                     options.out_dir.c_str(),
                     dir_error.message().c_str());
        return 2;
    }

    const bool silent_text =
        options.format != DriverOptions::Format::Text;
    bool any_failed = false;
    std::vector<ExperimentResult> results;
    std::vector<std::string> documents;
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = options.timeseries;
    tcfg.trace = options.trace;
    tcfg.trace_limit = options.trace_limit;

    // Graceful Ctrl-C: the first SIGINT/SIGTERM stops after the points
    // already in flight, flushes the journal, and writes the partial
    // BENCH JSON with "interrupted": true; a second one exits hard.
    sim::resetInterruptState();
    StopSignalGuard stop_signals;

    // --progress observability: events.jsonl + status.json in --out and
    // a stderr progress line. Everything stays on stderr / in files so
    // the stdout streams above are byte-identical with the flag off.
    MonitorGuard monitor_guard(options);

    std::unique_ptr<sim::ProcessPool> pool;
    if (options.workers > 0 && tcfg.any()) {
        std::fprintf(stderr,
                     "padc: warning: --workers ignored (telemetry "
                     "collectors cannot cross the process boundary); "
                     "sweeps run in-thread\n");
    } else if (options.workers > 0) {
        std::vector<std::string> worker_argv = {"/proc/self/exe",
                                                "worker"};
        if (!options.corpus_dir.empty()) {
            worker_argv.push_back("--corpus");
            worker_argv.push_back(options.corpus_dir);
        }
        pool = std::make_unique<sim::ProcessPool>(
            std::move(worker_argv),
            sim::ProcPoolConfig::fromEnv(options.workers));
        if (!pool->available()) {
            std::fprintf(stderr,
                         "padc: warning: no sweep worker process came "
                         "up; sweeps run in-thread\n");
        }
    }

    // This call's flags alone choose the runner and the journal; every
    // experiment of the run shares both.
    sim::ParallelExperimentRunner runner(options.threads);
    std::unique_ptr<sim::SweepJournal> journal;
    if (!options.resume_path.empty()) {
        try {
            journal = std::make_unique<sim::SweepJournal>(
                options.resume_path);
            std::fprintf(stderr,
                         "padc: resuming from journal '%s' (%zu "
                         "completed points loaded)\n",
                         options.resume_path.c_str(),
                         journal->loadedEntries());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "padc: warning: --resume ignored: %s\n",
                         e.what());
        }
    }

    bool any_interrupted = false;
    for (const Experiment *experiment : experiments) {
        const ExperimentInfo &info = experiment->info;
        ExperimentContext context(info, runner, journal.get(),
                                  options.seed, tcfg, pool.get());
        telemetry::WallProfiler::instance().reset();
        const auto start = std::chrono::steady_clock::now();
        {
            StdoutSilencer silence(silent_text);
            banner(info.anchor, info.title, info.paper_shape);
            try {
                experiment->run(context);
            } catch (const std::exception &e) {
                context.result().status = "failed";
                context.result().detail = e.what();
            }
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        ExperimentResult &result = context.result();
        result.wall_seconds = wall.count();
        recordRunProfile(result);
        if (pool != nullptr && pool->available())
            recordPoolProfile(*pool, result);
        writeSinks(options, info, context, result, &any_failed);
        if (options.format == DriverOptions::Format::Text) {
            std::printf(
                "[%s] %.3g sim-cycles in %.2fs (%.3g cycles/sec); "
                "build %.2fs, simulate %.2fs, alone %.2fs, "
                "collect %.2fs\n",
                info.name.c_str(),
                static_cast<double>(result.simCycles()),
                result.wall_seconds,
                result.wall_seconds > 0.0
                    ? static_cast<double>(result.simCycles()) /
                          result.wall_seconds
                    : 0.0,
                result.profile.get("build_seconds"),
                result.profile.get("simulate_seconds"),
                result.profile.get("alone_seconds"),
                result.profile.get("collect_seconds"));
            for (const SinkSummary &sink : result.sinks) {
                std::printf("[%s] wrote %s '%s' (%llu rows, %llu "
                            "beyond retention)\n",
                            info.name.c_str(), sink.kind.c_str(),
                            sink.path.c_str(),
                            static_cast<unsigned long long>(sink.rows),
                            static_cast<unsigned long long>(sink.dropped));
            }
        }
        if (result.status == "failed" && !result.detail.empty() &&
            result.points.empty()) {
            std::fprintf(stderr, "padc: experiment '%s' failed: %s\n",
                         info.name.c_str(), result.detail.c_str());
        }
        any_failed = any_failed || result.status == "failed";

        const std::string document = resultJson(info, result);
        const std::filesystem::path path =
            std::filesystem::path(options.out_dir) /
            ("BENCH_" + info.name + ".json");
        if (std::FILE *file = std::fopen(path.c_str(), "w")) {
            std::fputs(document.c_str(), file);
            std::fputc('\n', file);
            std::fclose(file);
        } else {
            std::fprintf(stderr, "padc: cannot write '%s'\n",
                         path.c_str());
            any_failed = true;
        }
        documents.push_back(document);
        results.push_back(std::move(result));
        // A graceful stop still wrote this experiment's (partial) BENCH
        // file above; later experiments never start.
        if (results.back().interrupted) {
            any_interrupted = true;
            break;
        }
    }

    if (options.format == DriverOptions::Format::Json) {
        std::string out = "{\"schema\": \"padc-bench-results-v1\", "
                          "\"results\": [";
        for (std::size_t i = 0; i < documents.size(); ++i) {
            out += i == 0 ? "" : ",";
            out += documents[i];
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
    } else if (options.format == DriverOptions::Format::Csv) {
        printCsv(experiments, results);
    }
    if (any_interrupted)
        return 130;
    return any_failed ? 1 : 0;
}

} // namespace padc::exp
