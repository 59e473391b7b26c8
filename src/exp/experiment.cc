#include "exp/experiment.hh"

#include "common/fnv.hh"
#include "exp/report.hh"
#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "sim/metrics.hh"

namespace padc::exp
{

namespace
{

void
addTrafficMetrics(StatSet &metrics, const sim::RunMetrics &run)
{
    metrics.add("traffic_total", static_cast<double>(run.totalTraffic()));
    metrics.add("traffic_demand",
                static_cast<double>(run.trafficDemand()));
    metrics.add("traffic_pref_useful",
                static_cast<double>(run.trafficPrefUseful()));
    metrics.add("traffic_pref_useless",
                static_cast<double>(run.trafficPrefUseless()));
    metrics.add("traffic_writeback",
                static_cast<double>(run.trafficWriteback()));
}

/** The run behind a sweep value, for the metrics every point shares. */
const sim::RunMetrics &
runOf(const sim::RunMetrics &run)
{
    return run;
}

const sim::RunMetrics &
runOf(const sim::MixEvaluation &eval)
{
    return eval.metrics;
}

/** Rank of a point status for worst-status aggregation. */
int
severity(const std::string &status)
{
    if (status == "ok")
        return 0;
    if (status == "truncated")
        return 1;
    return 2;
}

} // namespace

std::uint64_t
ExperimentResult::configHash() const
{
    const std::uint64_t count = points.size();
    std::uint64_t hash = fnv1a(&count, sizeof(count));
    for (const PointRecord &point : points)
        hash = fnv1a(&point.key, sizeof(point.key), hash);
    return hash;
}

std::uint64_t
ExperimentResult::simCycles() const
{
    std::uint64_t cycles = 0;
    for (const PointRecord &point : points)
        cycles += point.cycles;
    return cycles;
}

double
ExperimentResult::simCyclesPerSec() const
{
    return wall_seconds > 0.0
               ? static_cast<double>(simCycles()) / wall_seconds
               : 0.0;
}

ExperimentContext::ExperimentContext(
    const ExperimentInfo &info, sim::ParallelExperimentRunner &runner,
    sim::SweepJournal *journal, std::optional<std::uint64_t> seed_override,
    telemetry::TelemetryConfig telemetry)
    : info_(info), runner_(runner), journal_(journal),
      seed_override_(seed_override), tcfg_(telemetry)
{
}

std::vector<sim::SweepPoint>
ExperimentContext::attachCollectors(
    const std::vector<sim::SweepPoint> &points)
{
    if (!tcfg_.any())
        return points;
    std::vector<sim::SweepPoint> attached = points;
    for (auto &point : attached) {
        captures_.push_back(
            {sim::describePoint(point),
             std::make_unique<telemetry::Collector>(tcfg_)});
        point.config.collector = captures_.back().collector.get();
    }
    return attached;
}

void
ExperimentContext::recordPoint(PointRecord record)
{
    if (severity(record.status) > severity(result_.status)) {
        result_.status = record.status;
        result_.detail = record.detail;
    }
    result_.points.push_back(std::move(record));
}

template <typename T, typename Execute, typename AddMetrics>
std::vector<sim::Result<T>>
ExperimentContext::sweep(const std::vector<sim::SweepPoint> &points,
                         Execute &&execute, AddMetrics &&add_metrics)
{
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->sweepStarted(info_.name, points.size());
    std::vector<sim::Result<T>> results = execute();
    reportSweepFailures(points, results);
    result_.interrupted = result_.interrupted || sim::interruptRequested();
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->sweepFinished();

    for (std::size_t i = 0; i < points.size(); ++i) {
        const sim::RunMetrics &run = runOf(results[i].value);
        PointRecord record;
        record.key = sim::sweepPointKey(points[i]);
        record.label = sim::describePoint(points[i]);
        record.status = sim::toString(results[i].outcome.status);
        record.detail = results[i].outcome.detail;
        record.attempts = results[i].outcome.attempts;
        record.cycles = run.cycles();
        add_metrics(results[i].value, record.metrics);
        addTrafficMetrics(record.metrics, run);
        recordPoint(std::move(record));
    }
    return results;
}

std::vector<sim::Result<sim::MixEvaluation>>
ExperimentContext::evaluateSweep(const std::vector<sim::SweepPoint> &points,
                                 sim::AloneIpcCache &alone)
{
    return sweep<sim::MixEvaluation>(
        points,
        [&] {
            return sim::evaluateSweep(attachCollectors(points), alone,
                                      runner_, journal_);
        },
        [](const sim::MixEvaluation &eval, StatSet &metrics) {
            metrics.add("ws", eval.summary.ws);
            metrics.add("hs", eval.summary.hs);
            metrics.add("uf", eval.summary.uf);
            for (std::size_t c = 0; c < eval.summary.speedups.size(); ++c)
                metrics.add("speedup" + std::to_string(c),
                            eval.summary.speedups[c]);
        });
}

std::vector<sim::Result<sim::RunMetrics>>
ExperimentContext::runSweep(const std::vector<sim::SweepPoint> &points)
{
    return sweep<sim::RunMetrics>(
        points,
        [&] {
            return sim::runSweep(attachCollectors(points), runner_,
                                 journal_);
        },
        [](const sim::RunMetrics &run, StatSet &metrics) {
            for (std::size_t c = 0; c < run.cores.size(); ++c) {
                const std::string prefix = "core" + std::to_string(c) + ".";
                metrics.add(prefix + "ipc", run.cores[c].ipc);
                metrics.add(prefix + "mpki", run.cores[c].mpki);
                metrics.add(prefix + "spl", run.cores[c].spl);
                metrics.add(prefix + "rbhu", run.cores[c].rbhu);
            }
        });
}

void
ExperimentContext::recordScalar(const std::string &name, double value)
{
    result_.scalars.add(name, value);
}

void
ExperimentContext::recordCustomPoint(const std::string &label,
                                     Cycle cycles, const StatSet &metrics)
{
    PointRecord record;
    const std::string tail = "/" + label;
    record.key = fnv1a(tail.data(), tail.size(),
                       fnv1a(info_.name.data(), info_.name.size()));
    record.label = label;
    record.status = "ok";
    record.cycles = cycles;
    record.metrics = metrics;
    recordPoint(std::move(record));
}

} // namespace padc::exp
