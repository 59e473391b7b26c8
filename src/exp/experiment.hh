/**
 * @file
 * First-class experiment descriptors and the execution context the
 * `padc` driver hands to each registered experiment.
 *
 * An Experiment is one paper artifact (figure, table, or ablation):
 * a stable CLI name, the paper anchor it reproduces, tags for group
 * selection, and a run function. The run function prints the exact
 * human-readable rows the standalone bench binaries used to print
 * (byte-identical -- that is the migration's correctness bar) while
 * recording a structured ExperimentResult through the context, from
 * which the driver emits a uniform machine-readable
 * `BENCH_<name>.json` for every experiment.
 */

#ifndef PADC_EXP_EXPERIMENT_HH
#define PADC_EXP_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/parallel.hh"
#include "telemetry/telemetry.hh"
#include "workload/mixes.hh"

namespace padc::sim
{
class ProcessPool;
} // namespace padc::sim

namespace padc::exp
{

/** Static description of one registered experiment. */
struct ExperimentInfo
{
    std::string name;        ///< CLI name, e.g. "fig09"
    std::string anchor;      ///< paper anchor, e.g. "Figure 9"
    std::string title;       ///< what it measures (banner line 1)
    std::string paper_shape; ///< the paper's qualitative claim
    std::vector<std::string> tags; ///< group selectors, e.g. "overall"
};

/** One executed simulation point of an experiment, for the JSON file. */
struct PointRecord
{
    std::uint64_t key = 0; ///< config hash (sim::sweepPointKey)
    std::string label;     ///< human identification of the point
    std::string status;    ///< "ok" / "truncated" / "failed"
    std::string detail;    ///< diagnostic for non-ok points
    std::uint64_t attempts = 1; ///< executions (0 = replay/never ran)
    std::string last_error;     ///< last failed attempt when retried
    Cycle cycles = 0;      ///< simulated cycles of the point
    StatSet metrics;       ///< per-point scalar metrics
};

/** One telemetry artifact the driver wrote for this experiment. */
struct SinkSummary
{
    std::string kind; ///< "timeseries" / "trace"
    std::string path; ///< where the file was written
    std::uint64_t rows = 0;    ///< rows / events retained in the file
    std::uint64_t dropped = 0; ///< rows / events lost to retention bounds
};

/** Structured outcome of one experiment run. */
struct ExperimentResult
{
    std::string status = "ok"; ///< worst point status / "failed" on throw
    std::string detail;        ///< diagnostic when status != "ok"
    std::vector<PointRecord> points;
    StatSet scalars;           ///< experiment-level summary metrics
    double wall_seconds = 0.0; ///< filled by the driver

    /**
     * True when a SIGINT/SIGTERM cut the run short: the recorded points
     * are genuine, but unfinished points appear as failed "interrupted"
     * and later sweeps of the experiment never ran.
     */
    bool interrupted = false;

    std::vector<SinkSummary> sinks; ///< telemetry files (driver-filled)
    StatSet profile; ///< host wall-clock phase profile (driver-filled)

    /**
     * 64-bit FNV-1a over every point key in order (seeded with the
     * count), identifying the exact set of configurations the run
     * executed.
     */
    std::uint64_t configHash() const;

    /** Total simulated cycles across all points. */
    std::uint64_t simCycles() const;
};

/**
 * Execution context of one experiment run: the run's runner, journal
 * and pool plumbing plus the structured-result sink. The two sweep
 * wrappers mirror the sim:: entry points but also print the standard
 * per-point failure summary and record every point into the result;
 * every simulated point of an experiment goes through one of them.
 */
class ExperimentContext
{
  public:
    /**
     * @param info the experiment being run
     * @param runner pool the sweeps fan out on
     * @param journal checkpoint/resume journal, may be nullptr
     * @param seed_override --seed value, overrides per-experiment
     *        default mix seeds when set
     * @param telemetry which telemetry sinks to attach to each executed
     *        point (all off by default)
     * @param pool when non-null, sweeps run crash-isolated across its
     *        worker subprocesses instead of in-process threads.
     *        Telemetry wins over the pool: collectors cannot cross the
     *        process boundary, so sweeps run in-thread when any
     *        telemetry sink is enabled. They also run in-thread when
     *        no worker came up (pool->available() is false).
     */
    ExperimentContext(const ExperimentInfo &info,
                      sim::ParallelExperimentRunner &runner,
                      sim::SweepJournal *journal,
                      std::optional<std::uint64_t> seed_override,
                      telemetry::TelemetryConfig telemetry = {},
                      sim::ProcessPool *pool = nullptr);

    const ExperimentInfo &info() const { return info_; }

    sim::ParallelExperimentRunner &runner() { return runner_; }

    sim::SweepJournal *journal() { return journal_; }

    /** The experiment's default mix seed, unless --seed overrode it. */
    std::uint64_t mixSeed(std::uint64_t dflt) const
    {
        return seed_override_.value_or(dflt);
    }

    /**
     * sim::evaluateSweep across the context runner/journal, followed by
     * the standard failure summary (prints nothing when fault-free) and
     * per-point recording into the result.
     */
    std::vector<sim::Result<sim::MixEvaluation>>
    evaluateSweep(const std::vector<sim::SweepPoint> &points,
                  sim::AloneIpcCache &alone);

    /** sim::runSweep with the same reporting/recording contract. */
    std::vector<sim::Result<sim::RunMetrics>>
    runSweep(const std::vector<sim::SweepPoint> &points);

    /** Record an experiment-level summary scalar. */
    void recordScalar(const std::string &name, double value);

    /**
     * Record a point that did not come from a sweep (custom scenarios
     * like the Fig. 2 one-bank timeline). The key is derived from the
     * experiment name and the label.
     */
    void recordCustomPoint(const std::string &label, Cycle cycles,
                           const StatSet &metrics);

    /** The structured result under construction. */
    ExperimentResult &result() { return result_; }

    /**
     * Telemetry collected for one executed point. Collectors are
     * allocated per point (in execution order) when telemetry is
     * enabled; journal-replayed points still get a collector, which
     * simply stays empty because the simulation never runs.
     */
    struct PointCapture
    {
        std::string label;
        std::unique_ptr<telemetry::Collector> collector;
    };

    /** Captures of every executed point, in execution order. */
    const std::vector<PointCapture> &captures() const { return captures_; }

  private:
    /**
     * The body both sweeps share: the monitor's start and finish, the
     * choice between the pool and the runner, the failure summary, the
     * interrupt flag and the fields every PointRecord carries.
     * @p execute runs the points (in the pool when its argument is
     * true); @p add_metrics adds the sweep's own metrics to a record.
     */
    template <typename T, typename Execute, typename AddMetrics>
    std::vector<sim::Result<T>>
    sweep(const std::vector<sim::SweepPoint> &points, Execute &&execute,
          AddMetrics &&add_metrics);

    void recordPoint(PointRecord record);

    /**
     * When telemetry is on, return a copy of @p points with one fresh
     * Collector attached per point (ownership parked in captures_);
     * otherwise return @p points unchanged.
     */
    std::vector<sim::SweepPoint>
    attachCollectors(const std::vector<sim::SweepPoint> &points);

    const ExperimentInfo &info_;
    sim::ParallelExperimentRunner &runner_;
    sim::SweepJournal *journal_;
    sim::ProcessPool *pool_;
    std::optional<std::uint64_t> seed_override_;
    telemetry::TelemetryConfig tcfg_;
    std::vector<PointCapture> captures_;
    ExperimentResult result_;
};

/** Run-function signature of a registered experiment. */
using ExperimentFn = void (*)(ExperimentContext &);

/** A registered experiment: description + run function. */
struct Experiment
{
    ExperimentInfo info;
    ExperimentFn run = nullptr;
};

} // namespace padc::exp

#endif // PADC_EXP_EXPERIMENT_HH
