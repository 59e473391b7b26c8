/**
 * @file
 * End-to-end tests of the process-sharded sweep executor. The test
 * binary doubles as its own worker: the custom main() below dispatches
 * `--padc-worker` to ProcessPool::workerMain, so every test spawns real
 * subprocesses of /proc/self/exe and exercises the genuine fork/exec,
 * pipe, retry, quarantine, journal, and interrupt machinery.
 */

#include "sim/procpool.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "exp/experiment.hh"
#include "sim/experiment.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "sim/parallel.hh"

namespace padc::sim
{
namespace
{

/** Scoped environment variable: set on entry, unset on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }

    ~ScopedEnv() { ::unsetenv(name_); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

std::vector<std::string>
workerArgv()
{
    return {"/proc/self/exe", "--padc-worker"};
}

ProcPoolConfig
quickConfig(unsigned workers = 2)
{
    ProcPoolConfig config;
    config.workers = workers;
    config.backoff_initial_ms = 1;
    config.backoff_max_ms = 2;
    return config;
}

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

void
expectSameCores(const RunMetrics &a, const RunMetrics &b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].ipc, b.cores[c].ipc);
        EXPECT_EQ(a.cores[c].mpki, b.cores[c].mpki);
        EXPECT_EQ(a.cores[c].spl, b.cores[c].spl);
        EXPECT_EQ(a.cores[c].acc, b.cores[c].acc);
        EXPECT_EQ(a.cores[c].cov, b.cores[c].cov);
        EXPECT_EQ(a.cores[c].rbh, b.cores[c].rbh);
        EXPECT_EQ(a.cores[c].rbhu, b.cores[c].rbhu);
        EXPECT_EQ(a.cores[c].traffic_demand, b.cores[c].traffic_demand);
        EXPECT_EQ(a.cores[c].traffic_pref_useful,
                  b.cores[c].traffic_pref_useful);
        EXPECT_EQ(a.cores[c].traffic_pref_useless,
                  b.cores[c].traffic_pref_useless);
        EXPECT_EQ(a.cores[c].traffic_writeback,
                  b.cores[c].traffic_writeback);
        EXPECT_EQ(a.cores[c].instructions, b.cores[c].instructions);
        EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
    }
}

void
expectBitIdentical(const std::vector<Result<RunMetrics>> &pooled,
                   const std::vector<Result<RunMetrics>> &reference)
{
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_EQ(pooled[i].outcome.status, reference[i].outcome.status);
        EXPECT_EQ(pooled[i].outcome.detail, reference[i].outcome.detail);
        expectSameCores(pooled[i].value, reference[i].value);
    }
}

TEST(ProcPool, RunSweepMatchesInThreadBitIdentically)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    const auto reference = runSweep(points, runner);

    ProcessPool pool(workerArgv(), quickConfig());
    ASSERT_TRUE(pool.available());
    const auto pooled = pool.runSweep(points);
    expectBitIdentical(pooled, reference);
    const ProcessPool::PoolProfile profile = pool.drainProfile();
    EXPECT_EQ(profile.tasks, points.size());
    EXPECT_EQ(profile.retries, 0u);
    for (const auto &result : pooled)
        EXPECT_EQ(result.outcome.attempts, 1u);
}

TEST(ProcPool, EvaluateSweepMatchesInThreadBitIdentically)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    AloneIpcCache alone_ref(points[0].config, points[0].options);
    const auto reference = evaluateSweep(points, alone_ref, runner);

    ProcessPool pool(workerArgv(), quickConfig());
    AloneIpcCache alone(points[0].config, points[0].options);
    const auto pooled = pool.evaluateSweep(points, alone);
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_EQ(pooled[i].outcome.status, reference[i].outcome.status);
        EXPECT_EQ(pooled[i].value.summary.ws,
                  reference[i].value.summary.ws);
        EXPECT_EQ(pooled[i].value.summary.hs,
                  reference[i].value.summary.hs);
        EXPECT_EQ(pooled[i].value.summary.uf,
                  reference[i].value.summary.uf);
        EXPECT_EQ(pooled[i].value.summary.speedups,
                  reference[i].value.summary.speedups);
        expectSameCores(pooled[i].value.metrics,
                        reference[i].value.metrics);
    }
}

TEST(ProcPool, TruncatedAloneRunFailsThePointInTheWorker)
{
    // The workers run the alone runs too: one that hits its cycle cap
    // fails the point there, with the same diagnostic as in-thread, and
    // is not retried as a crash would be.
    auto points = fourPoints();
    points.resize(2);
    RunOptions capped = points[0].options;
    capped.instructions = 100000;
    capped.max_cycles = 300;
    ParallelExperimentRunner runner(2);
    AloneIpcCache alone_ref(points[0].config, capped);
    const auto reference = evaluateSweep(points, alone_ref, runner);

    ProcessPool pool(workerArgv(), quickConfig());
    ASSERT_TRUE(pool.available());
    AloneIpcCache alone(points[0].config, capped);
    const auto pooled = pool.evaluateSweep(points, alone);
    ASSERT_EQ(pooled.size(), reference.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_EQ(pooled[i].outcome.status, PointStatus::Failed);
        EXPECT_EQ(pooled[i].outcome.detail, reference[i].outcome.detail);
        EXPECT_NE(pooled[i].outcome.detail.find("alone run of mcf_06"),
                  std::string::npos)
            << "diagnostic: " << pooled[i].outcome.detail;
        EXPECT_EQ(pooled[i].outcome.attempts, 1u);
    }
}

TEST(ProcPool, CrashFaultsRetryAndStayBitIdentical)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    const auto reference = runSweep(points, runner);

    // crash:2 kills the worker on indices 1 and 3, first attempt only.
    ScopedEnv fault("PADC_FAULT_INJECT", "crash:2");
    ProcessPool pool(workerArgv(), quickConfig());
    const auto pooled = pool.runSweep(points);
    expectBitIdentical(pooled, reference);
    EXPECT_EQ(pool.drainProfile().retries, 2u);
    EXPECT_EQ(pooled[0].outcome.attempts, 1u);
    EXPECT_EQ(pooled[1].outcome.attempts, 2u);
    EXPECT_EQ(pooled[3].outcome.attempts, 2u);
    EXPECT_NE(pooled[1].outcome.last_error.find("signal 9"),
              std::string::npos)
        << pooled[1].outcome.last_error;
}

TEST(ProcPool, ExitFaultsCarryTheExitStatusDiagnostic)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    const auto reference = runSweep(points, runner);

    ScopedEnv fault("PADC_FAULT_INJECT", "exit:7:3");
    ProcessPool pool(workerArgv(), quickConfig());
    const auto pooled = pool.runSweep(points);
    expectBitIdentical(pooled, reference);
    EXPECT_EQ(pooled[2].outcome.attempts, 2u);
    EXPECT_NE(pooled[2].outcome.last_error.find("exited with status 7"),
              std::string::npos)
        << pooled[2].outcome.last_error;
}

TEST(ProcPool, PoisonPointIsQuarantinedOthersSurvive)
{
    const auto points = fourPoints();
    const std::string journal_path =
        ::testing::TempDir() + "padc_procpool_poison." +
        std::to_string(::getpid()) + ".padcjournal";
    std::remove(journal_path.c_str());

    ScopedEnv fault("PADC_FAULT_INJECT", "poison:1");
    ProcessPool pool(workerArgv(), quickConfig());
    SweepJournal journal(journal_path);
    const auto pooled = pool.runSweep(points, &journal);

    ASSERT_EQ(pooled.size(), 4u);
    EXPECT_EQ(pooled[1].outcome.status, PointStatus::Failed);
    EXPECT_NE(pooled[1].outcome.detail.find("quarantined after 3 "
                                            "attempts"),
              std::string::npos)
        << pooled[1].outcome.detail;
    EXPECT_NE(pooled[1].outcome.detail.find("signal 9"),
              std::string::npos)
        << pooled[1].outcome.detail;
    EXPECT_EQ(pooled[1].outcome.attempts, 3u);
    EXPECT_EQ(pool.drainProfile().quarantined, 1u);
    for (const std::size_t i : {0u, 2u, 3u})
        EXPECT_EQ(pooled[i].outcome.status, PointStatus::Ok) << i;

    // Quarantined points are never journaled: a resume retries them.
    Result<RunMetrics> stored;
    EXPECT_FALSE(journal.lookup(sweepPointKey(points[1]), &stored));
    EXPECT_TRUE(journal.lookup(sweepPointKey(points[0]), &stored));
    std::remove(journal_path.c_str());
}

TEST(ProcPool, HungWorkerTimesOutAndThePointRetries)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    const auto reference = runSweep(points, runner);

    ScopedEnv fault("PADC_FAULT_INJECT", "hang:3");
    ProcPoolConfig config = quickConfig();
    config.heartbeat_timeout_ms = 300;
    ProcessPool pool(workerArgv(), config);
    const auto pooled = pool.runSweep(points);
    expectBitIdentical(pooled, reference);
    EXPECT_EQ(pooled[2].outcome.attempts, 2u);
    EXPECT_NE(pooled[2].outcome.last_error.find("timed out"),
              std::string::npos)
        << pooled[2].outcome.last_error;
}

TEST(ProcPool, JournaledPointsReplayWithoutWorkers)
{
    const auto points = fourPoints();
    const std::string journal_path =
        ::testing::TempDir() + "padc_procpool_journal." +
        std::to_string(::getpid()) + ".padcjournal";
    std::remove(journal_path.c_str());

    std::vector<Result<RunMetrics>> first;
    {
        ProcessPool pool(workerArgv(), quickConfig());
        SweepJournal journal(journal_path);
        first = pool.runSweep(points, &journal);
        EXPECT_EQ(pool.drainProfile().tasks, 4u);
    }
    {
        ProcessPool pool(workerArgv(), quickConfig());
        SweepJournal journal(journal_path);
        EXPECT_EQ(journal.loadedEntries(), 4u);
        const auto replayed = pool.runSweep(points, &journal);
        expectBitIdentical(replayed, first);
        const ProcessPool::PoolProfile profile = pool.drainProfile();
        EXPECT_EQ(profile.tasks, 0u);
        EXPECT_EQ(profile.replayed, 4u);
        for (const auto &result : replayed)
            EXPECT_EQ(result.outcome.attempts, 0u);
    }
    std::remove(journal_path.c_str());
}

TEST(ProcPool, UnspawnableWorkersDegradeToInThreadExecution)
{
    const auto points = fourPoints();
    ParallelExperimentRunner runner(2);
    const auto reference = runSweep(points, runner);

    // The pool has no fallback of its own: the experiment context sees
    // that no worker came up and runs the sweep on its runner.
    ProcessPool pool({"/nonexistent/padc-worker-binary", "worker"},
                     quickConfig());
    EXPECT_FALSE(pool.available());
    const exp::ExperimentInfo info{"unspawnable", "", "", "", {}};
    exp::ExperimentContext ctx(info, runner, nullptr, std::nullopt, {},
                               &pool);
    const auto pooled = ctx.runSweep(points);
    expectBitIdentical(pooled, reference);
}

TEST(ProcPool, InterruptDrainsPendingPointsAsInterrupted)
{
    const auto points = fourPoints();
    ScopedEnv hook("PADC_TEST_INTERRUPT_AFTER", "1");
    resetInterruptState();

    // One worker serializes the dispatches, so the post-interrupt
    // outcome split is deterministic: 1 completed, 3 drained.
    ProcessPool pool(workerArgv(), quickConfig(1));
    const auto pooled = pool.runSweep(points);

    std::size_t ok = 0;
    std::size_t interrupted = 0;
    for (const auto &result : pooled) {
        if (result.outcome.status == PointStatus::Ok) {
            ++ok;
        } else {
            EXPECT_EQ(result.outcome.detail, kInterruptedDetail);
            EXPECT_EQ(result.outcome.attempts, 0u);
            ++interrupted;
        }
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(interrupted, 3u);

    ::unsetenv("PADC_TEST_INTERRUPT_AFTER");
    resetInterruptState(); // do not leak the stop into later tests
}

} // namespace
} // namespace padc::sim

int
main(int argc, char **argv)
{
    // The worker half of the tests: the supervisor under test spawns
    // this very binary with --padc-worker and the pipe fds staged.
    if (argc >= 2 && std::strcmp(argv[1], "--padc-worker") == 0) {
        return padc::sim::ProcessPool::workerMain(
            padc::sim::kWorkerTaskFd, padc::sim::kWorkerResultFd);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
