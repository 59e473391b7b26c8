#include "exp/driver.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "common/atomic_file.hh"
#include "common/parse.hh"
#include "exp/json.hh"
#include "exp/registry.hh"
#include "exp/report.hh"
#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "telemetry/export.hh"
#include "telemetry/profiler.hh"

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

/** The driver's usage text. */
std::string
driverUsage()
{
    return "usage: padc <command> [options]\n"
           "\n"
           "commands:\n"
           "  list                     list every registered experiment\n"
           "  run <name|tag|glob>...   run the selected experiments\n"
           "  run --all                run every registered experiment\n"
           "  help                     show this message\n"
           "\n"
           "options:\n"
           "  --threads N    threads the sweeps run on (1 = serial;\n"
           "                 default: hardware concurrency); results\n"
           "                 are identical at any N\n"
           "  --resume PATH  checkpoint/resume journal: every finished\n"
           "                 point is appended, and a rerun replays\n"
           "                 the points it holds\n"
           "  --seed N       override the random-mix seed of seeded "
           "experiments\n"
           "  --out DIR      directory for the BENCH, trace and\n"
           "                 timeseries files (default: .)\n"
           "  --progress     a live stderr progress line per sweep\n"
           "                 (done/total, rate, ETA); stdout output is\n"
           "                 unchanged\n"
           "  --timeseries   record per-interval telemetry (PAR, drop\n"
           "                 threshold, bus util, queues) to\n"
           "                 <out>/<name>.timeseries.csv\n"
           "  --trace        record request-lifecycle events to\n"
           "                 <out>/<name>.trace.json, a Chrome\n"
           "                 trace-event JSON loadable in Perfetto\n"
           "  --trace-limit N\n"
           "                 events retained per run (default: 1048576)\n"
           "\n"
           "Every run also writes a machine-readable BENCH_<name>.json\n"
           "(schema padc-bench-result-v2) per experiment into --out.\n"
           "The first SIGINT/SIGTERM stops after the points in flight,\n"
           "writes the partial BENCH file and exits 130; a second one\n"
           "exits at once.\n";
}

} // namespace

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
            if (!parseU64(text, &threads) || threads == 0 ||
                threads > sim::kMaxThreads) {
                *error = "--threads expects an integer in [1, " +
                         std::to_string(sim::kMaxThreads) + "]";
                return false;
            }
            out->threads = static_cast<unsigned>(threads);
        } else if (arg == "--resume") {
            const char *text = value();
            if (text == nullptr || *text == '\0') {
                *error = "--resume expects a journal path";
                return false;
            }
            out->resume_path = text;
        } else if (arg == "--seed") {
            std::uint64_t seed = 0;
            if (!parseU64(value(), &seed)) {
                *error = "--seed expects a non-negative integer";
                return false;
            }
            out->seed = seed;
        } else if (arg == "--out") {
            const char *text = value();
            if (text == nullptr || *text == '\0') {
                *error = "--out expects a directory";
                return false;
            }
            out->out_dir = text;
        } else if (arg == "--progress") {
            out->progress = true;
        } else if (arg == "--timeseries") {
            out->timeseries = true;
        } else if (arg == "--trace") {
            out->trace = true;
        } else if (arg == "--trace-limit") {
            if (!parseU64(value(), &out->trace_limit)) {
                *error = "--trace-limit expects a non-negative integer";
                return false;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            *error = "unknown option '" + arg + "' (try 'padc help')";
            return false;
        } else if (out->command == DriverOptions::Command::Run) {
            out->selectors.push_back(arg);
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
    return true;
}

namespace
{

/**
 * Render one experiment's structured result as the
 * `padc-bench-result-v2` JSON document (the BENCH_<name>.json
 * contents).
 */
std::string
resultJson(const ExperimentInfo &info, const ExperimentResult &result)
{
    JsonWriter writer;
    writer.beginObject();
    writer.member("schema", "padc-bench-result-v2");
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
    writer.member("sim_cycles_per_sec", result.simCyclesPerSec());
    writer.beginArray("points");
    for (const PointRecord &point : result.points) {
        writer.beginObject();
        writer.member("key", hex16(point.key));
        writer.member("label", point.label);
        writer.member("status", point.status);
        writer.member("detail", point.detail);
        writer.member("attempts", point.attempts);
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

int
listExperiments()
{
    for (const Experiment *experiment :
         ExperimentRegistry::instance().all()) {
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
 * Export one experiment's telemetry captures into --out and record the
 * written files in the result. Export failures mark the run failed
 * rather than silently losing the requested artifacts.
 */
void
writeSinks(const DriverOptions &options, const ExperimentInfo &info,
           ExperimentContext &context, ExperimentResult &result,
           bool *any_failed)
{
    const auto emit = [&](const char *kind, const std::string &name,
                          const std::string &text, std::uint64_t rows,
                          std::uint64_t dropped) {
        const std::string path =
            (std::filesystem::path(options.out_dir) / name).string();
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
        emit("timeseries", info.name + ".timeseries.csv",
             telemetry::timeseriesCsv(series), rows, dropped);
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
        emit("trace", info.name + ".trace.json",
             telemetry::chromeTraceJson(traces), rows, dropped);
    }
}

/**
 * Snapshot the process-wide WallProfiler into @p result's profile block:
 * build/simulate/collect/alone seconds and the event-loop figures.
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
    // rather than stepped.
    result.profile.add("skipped_cycles",
                       static_cast<double>(snap.skipped_cycles));
    result.profile.add("event_jumps",
                       static_cast<double>(snap.event_jumps));
    result.profile.add("landed_cycles",
                       static_cast<double>(snap.landed_cycles));
    result.profile.add("core_ticks", static_cast<double>(snap.core_ticks));
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
        monitor_ = std::make_unique<obs::FleetMonitor>();
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

} // namespace

int
driverMain(int argc, const char *const *argv)
{
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
        return listExperiments();
      case DriverOptions::Command::Run:
        break;
    }

    bool selectors_ok = false;
    const auto experiments = selectExperiments(options, &selectors_ok);
    if (!selectors_ok)
        return 2;

    std::error_code dir_error;
    std::filesystem::create_directories(options.out_dir, dir_error);
    if (dir_error) {
        std::fprintf(stderr, "padc: cannot create --out '%s': %s\n",
                     options.out_dir.c_str(),
                     dir_error.message().c_str());
        return 2;
    }

    bool any_failed = false;
    telemetry::TelemetryConfig tcfg;
    tcfg.timeseries = options.timeseries;
    tcfg.trace = options.trace;
    tcfg.trace_limit = options.trace_limit;

    // Graceful Ctrl-C: the first SIGINT/SIGTERM stops after the points
    // already in flight, flushes the journal, and writes the partial
    // BENCH JSON with "interrupted": true; a second one exits hard.
    sim::resetInterruptState();
    StopSignalGuard stop_signals;

    // --progress observability: a stderr progress line, so stdout is
    // byte-identical with the flag off.
    MonitorGuard monitor_guard(options);

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
                                  options.seed, tcfg);
        telemetry::WallProfiler::instance().reset();
        const auto start = std::chrono::steady_clock::now();
        banner(info.anchor, info.title, info.paper_shape);
        try {
            experiment->run(context);
        } catch (const std::exception &e) {
            context.result().status = "failed";
            context.result().detail = e.what();
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        ExperimentResult &result = context.result();
        result.wall_seconds = wall.count();
        recordRunProfile(result);
        writeSinks(options, info, context, result, &any_failed);
        std::printf("[%s] %.3g sim-cycles in %.2fs (%.3g cycles/sec); "
                    "build %.2fs, simulate %.2fs, alone %.2fs, "
                    "collect %.2fs\n",
                    info.name.c_str(),
                    static_cast<double>(result.simCycles()),
                    result.wall_seconds, result.simCyclesPerSec(),
                    result.profile.get("build_seconds"),
                    result.profile.get("simulate_seconds"),
                    result.profile.get("alone_seconds"),
                    result.profile.get("collect_seconds"));
        for (const SinkSummary &sink : result.sinks) {
            std::printf("[%s] wrote %s '%s' (%llu rows, %llu beyond "
                        "retention)\n",
                        info.name.c_str(), sink.kind.c_str(),
                        sink.path.c_str(),
                        static_cast<unsigned long long>(sink.rows),
                        static_cast<unsigned long long>(sink.dropped));
        }
        if (result.status == "failed" && !result.detail.empty() &&
            result.points.empty()) {
            std::fprintf(stderr, "padc: experiment '%s' failed: %s\n",
                         info.name.c_str(), result.detail.c_str());
        }
        any_failed = any_failed || result.status == "failed";

        const std::filesystem::path path =
            std::filesystem::path(options.out_dir) /
            ("BENCH_" + info.name + ".json");
        AtomicFile file(path.string());
        const std::string text = resultJson(info, result) + "\n";
        if (!file.write(text.data(), text.size()) || !file.commit()) {
            std::fprintf(stderr, "padc: cannot write '%s': %s\n",
                         path.c_str(), file.error().c_str());
            any_failed = true;
        }
        // A graceful stop still wrote this experiment's (partial) BENCH
        // file above; later experiments never start.
        if (result.interrupted) {
            any_interrupted = true;
            break;
        }
    }

    if (any_interrupted)
        return 130;
    return any_failed ? 1 : 0;
}

} // namespace padc::exp
