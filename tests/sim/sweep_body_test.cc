/**
 * @file
 * Tests of the sweep body (sim::runPoints), driven by a stub executor
 * instead of the in-thread one: no threads. They pin journal replay,
 * the interrupt rule, exactly-once journaling, and the count each
 * point ending moves on the progress line.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/monitor.hh"
#include "sim/experiment.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "sim/parallel.hh"
#include "telemetry/profiler.hh"

namespace padc::sim
{
namespace
{

using obs::PointEnding;
using Lines = std::vector<std::string>;

/** Four cheap single-core points differing only in seed. */
std::vector<SweepPoint>
fourPoints()
{
    SweepPoint base;
    base.config = SystemConfig::baseline(1);
    base.mix = {"mcf_06"};
    base.options.instructions = 2000;
    base.options.warmup = 0;
    std::vector<SweepPoint> points;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        points.push_back(base);
        points.back().options.mix_seed = seed;
    }
    return points;
}

/**
 * Ends point i of each todo it is given as endings[i] (Ran when
 * endings is empty). A Ran point's core 0 has IPC i + 1, or NaN for
 * nan_point, so a replay shows which call computed it; failed_point
 * ran but failed. A point that did not run carries attempts 0 and a
 * detail runPoints must replace.
 */
struct StubExecutor
{
    std::vector<PointEnding> endings;
    std::size_t nan_point = std::numeric_limits<std::size_t>::max();
    std::size_t failed_point = std::numeric_limits<std::size_t>::max();
    std::vector<std::vector<std::size_t>> calls; ///< the todo of each call

    std::vector<Result<RunMetrics>>
    sweep(const std::vector<SweepPoint> &points, SweepJournal *journal)
    {
        return runPoints<RunMetrics>(
            points, journal,
            [&](const std::vector<std::size_t> &todo,
                const FinishPoint<RunMetrics> &finish) {
                calls.push_back(todo);
                for (const std::size_t i : todo) {
                    FinishedPoint<RunMetrics> done;
                    done.ending =
                        endings.empty() ? PointEnding::Ran : endings[i];
                    if (done.ending == PointEnding::Ran) {
                        done.result.value.cores.resize(1);
                        done.result.value.cores[0].ipc =
                            i == nan_point
                                ? std::numeric_limits<double>::quiet_NaN()
                                : static_cast<double>(i + 1);
                        if (i == failed_point) {
                            done.result.outcome.status = PointStatus::Failed;
                            done.result.outcome.detail = "boom";
                        }
                    } else {
                        done.result.outcome.attempts = 0;
                        done.result.outcome.detail = "gone";
                    }
                    finish(i, std::move(done));
                }
            });
    }
};

class SweepBody : public ::testing::Test
{
  protected:
    void SetUp() override { std::filesystem::create_directories(dir_); }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string journalPath() const { return (dir_ / "sweep.j").string(); }

    /** Lines the journal file holds. */
    std::size_t journalLines() const
    {
        std::ifstream in(journalPath());
        std::size_t lines = 0;
        for (std::string line; std::getline(in, line);)
            ++lines;
        return lines;
    }

    const std::filesystem::path dir_ =
        std::filesystem::temp_directory_path() /
        ("padc_sweep_body_test." + std::to_string(::getpid()));
};

TEST_F(SweepBody, ReplaysJournaledPointsAndFailsInterruptedOnesUnjournaled)
{
    const auto points = fourPoints();
    SweepJournal journal(journalPath());
    StubExecutor stub;
    stub.endings = {PointEnding::Ran, PointEnding::Interrupted,
                    PointEnding::Ran, PointEnding::Interrupted};
    const auto first = stub.sweep(points, &journal);
    for (const std::size_t i : {1u, 3u}) {
        const PointOutcome &outcome = first[i].outcome;
        EXPECT_EQ(outcome.status, PointStatus::Failed) << i;
        EXPECT_EQ(outcome.detail, kInterruptedDetail) << i;
        EXPECT_EQ(outcome.attempts, 0u) << i;
        EXPECT_TRUE(first[i].value.cores.empty()) << i;
    }
    EXPECT_EQ(journalLines(), 2u); // the interrupted points are not

    stub.endings.clear();
    const auto second = stub.sweep(points, &journal);
    ASSERT_EQ(stub.calls.size(), 2u);
    EXPECT_EQ(stub.calls[0], (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(stub.calls[1], (std::vector<std::size_t>{1, 3}));
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(second[i].outcome.status, PointStatus::Ok) << i;
        EXPECT_EQ(second[i].outcome.attempts, i % 2 == 0 ? 0u : 1u) << i;
        EXPECT_EQ(second[i].value.cores.at(0).ipc, i + 1.0) << i;
    }
}

TEST_F(SweepBody, JournalsEachComputedPointOnceAndRerunsUndecodableOnes)
{
    const auto points = fourPoints();
    SweepJournal journal(journalPath());
    StubExecutor stub;
    stub.nan_point = 2; // written as null: present, but never decodes
    stub.sweep(points, &journal);
    EXPECT_EQ(journalLines(), 4u);

    stub.nan_point = std::numeric_limits<std::size_t>::max();
    const auto second = stub.sweep(points, &journal);
    ASSERT_EQ(stub.calls.size(), 2u);
    EXPECT_EQ(stub.calls[1], (std::vector<std::size_t>{2}));
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(second[i].outcome.attempts, i == 2 ? 1u : 0u) << i;
    EXPECT_EQ(journalLines(), 4u); // nothing journaled twice

    // Once every point decodes, a call replays all of them.
    SweepJournal reopened(journalPath());
    StubExecutor fresh;
    fresh.sweep(points, &reopened);
    const auto third = fresh.sweep(points, &reopened);
    ASSERT_EQ(fresh.calls.size(), 2u);
    EXPECT_EQ(fresh.calls[0], (std::vector<std::size_t>{2}));
    EXPECT_TRUE(fresh.calls[1].empty());
    for (const auto &result : third)
        EXPECT_EQ(result.outcome.attempts, 0u);
    EXPECT_EQ(journalLines(), 5u);
}

TEST_F(SweepBody, FullyJournaledEvaluateSweepComputesNoAloneRun)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(1);
    SweepJournal journal(journalPath());
    const auto aloneRuns = [] {
        return telemetry::WallProfiler::instance().snapshot().calls(
            telemetry::ProfilePhase::Alone);
    };
    {
        AloneIpcCache alone(points[0].config, points[0].options);
        const std::uint64_t before = aloneRuns();
        evaluateSweep(points, alone, runner, &journal);
        EXPECT_EQ(aloneRuns() - before, points.size());
    }
    AloneIpcCache alone(points[0].config, points[0].options);
    const std::uint64_t before = aloneRuns();
    const auto replayed = evaluateSweep(points, alone, runner, &journal);
    EXPECT_EQ(aloneRuns(), before);
    for (const auto &result : replayed) {
        EXPECT_TRUE(result.ok());
        EXPECT_EQ(result.outcome.attempts, 0u);
    }
}

TEST_F(SweepBody, MonitorCountsEachEndingOnce)
{
    std::vector<SweepPoint> points = fourPoints();
    points.push_back(points.back());
    points.back().options.mix_seed = 4;
    SweepJournal journal(journalPath());
    StubExecutor().sweep({points[0]}, &journal);

    testing::internal::CaptureStderr();
    {
        obs::FleetMonitor monitor;
        obs::setActiveMonitor(&monitor);
        monitor.sweepStarted("unit", points.size());
        StubExecutor stub;
        stub.endings = {PointEnding::Ran, PointEnding::Ran,
                        PointEnding::Interrupted, PointEnding::Ran,
                        PointEnding::Ran};
        stub.failed_point = 4;
        const auto results = stub.sweep(points, &journal);
        monitor.sweepFinished();
        obs::setActiveMonitor(nullptr);
        EXPECT_EQ(results[2].outcome.detail, kInterruptedDetail);
        EXPECT_EQ(results[4].outcome.status, PointStatus::Failed);
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(journalLines(), 4u); // all but the interrupted point 2

    // The last line counts point 0's replay, the three ran points (one
    // failed) and the interrupted point 2, each once.
    const std::string last =
        err.substr(err.rfind('\n', err.size() - 2) + 1);
    const std::string head = "[padc] unit 5/5 done (1 replayed) | ";
    EXPECT_EQ(last.substr(0, head.size()), head) << err;
    EXPECT_NE(last.find(" pts/s ETA 0.0s"), std::string::npos) << err;
}

} // namespace
} // namespace padc::sim
