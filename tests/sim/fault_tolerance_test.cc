/**
 * @file
 * Failure-injection tests for the fault-tolerant experiment stack:
 * the parallel runner's exception contract, RunStatus propagation
 * from the cycle cap, and per-point sweep outcomes (Failed /
 * Truncated) that never abort the whole sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/parallel.hh"

namespace padc::sim
{
namespace
{

// --- runner exception contract ----------------------------------------

TEST(RunnerFaults, ThrowingJobDoesNotAbortOrDeadlock)
{
    ParallelExperimentRunner runner(4);
    constexpr std::size_t kJobs = 97;
    std::vector<std::atomic<int>> hits(kJobs);
    EXPECT_THROW(
        runner.forEach(kJobs,
                       [&](std::size_t i) {
                           ++hits[i];
                           if (i == 13)
                               throw std::runtime_error("injected");
                       }),
        std::runtime_error);
    // Every index still ran exactly once; the batch fully drained.
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(RunnerFaults, LowestIndexExceptionRethrownDeterministically)
{
    // Several jobs throw; forEach must surface the lowest-index one no
    // matter which thread finished first.
    for (unsigned threads : {1u, 4u}) {
        ParallelExperimentRunner runner(threads);
        std::string what;
        try {
            runner.forEach(50, [](std::size_t i) {
                if (i % 10 == 7)
                    throw std::runtime_error("boom@" + std::to_string(i));
            });
            FAIL() << "forEach did not rethrow";
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "boom@7") << "threads=" << threads;
    }
}

TEST(RunnerFaults, PoolStaysUsableAfterFailedBatch)
{
    ParallelExperimentRunner runner(3);
    EXPECT_THROW(runner.forEach(20,
                                [](std::size_t i) {
                                    if (i == 0)
                                        throw std::runtime_error("first");
                                }),
                 std::runtime_error);
    // The pool must not be poisoned: a clean batch still works...
    std::atomic<std::size_t> sum{0};
    runner.forEach(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
    // ... and map still orders results by index.
    const auto out =
        runner.map<std::size_t>(10, [](std::size_t i) { return i * 3; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * 3);
}

TEST(RunnerFaults, TryForEachReportsPerIndexErrors)
{
    ParallelExperimentRunner runner(4);
    const std::vector<std::exception_ptr> errors =
        runner.tryForEach(23, [](std::size_t i) {
            if (i % 2 == 0)
                throw std::invalid_argument("even@" + std::to_string(i));
        });
    ASSERT_EQ(errors.size(), 23u);
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i % 2 == 0) {
            ASSERT_TRUE(errors[i]) << "index " << i;
            try {
                std::rethrow_exception(errors[i]);
                FAIL();
            } catch (const std::invalid_argument &e) {
                EXPECT_EQ(std::string(e.what()),
                          "even@" + std::to_string(i));
            }
        } else {
            EXPECT_FALSE(errors[i]) << "index " << i;
        }
    }
}

TEST(RunnerFaults, TryForEachEmptyBatchReturnsNoErrors)
{
    ParallelExperimentRunner runner(2);
    EXPECT_TRUE(runner.tryForEach(0, [](std::size_t) {
                          throw std::runtime_error("never runs");
                      }).empty());
}

// --- RunStatus propagation --------------------------------------------

TEST(RunStatusFaults, TinyCycleCapReportsTruncation)
{
    const SystemConfig config =
        applyPolicy(SystemConfig::baseline(1), PolicySetup::DemandFirst);
    RunOptions options;
    options.instructions = 100000; // unreachable under the tiny cap
    options.warmup = 0;
    options.max_cycles = 200;

    RunStatus status;
    const RunMetrics metrics =
        runMix(config, {"milc_06"}, options, &status);
    EXPECT_FALSE(status.converged());
    EXPECT_EQ(status.cores_truncated, 1u);
    EXPECT_EQ(status.cores_completed, 0u);
    EXPECT_EQ(status.truncated_mask, 1u);
    EXPECT_EQ(status.max_cycles, 200u);
    // The diagnostic names the core and the cap.
    EXPECT_NE(status.detail().find("core 0"), std::string::npos);
    EXPECT_NE(status.detail().find("200-cycle cap"), std::string::npos);
    // Partial metrics are still produced (frozen at the cap).
    ASSERT_EQ(metrics.cores.size(), 1u);
    EXPECT_LT(metrics.cores[0].instructions, options.instructions);
}

TEST(RunStatusFaults, ConvergedRunReportsNoTruncation)
{
    const SystemConfig config =
        applyPolicy(SystemConfig::baseline(1), PolicySetup::DemandFirst);
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;

    RunStatus status;
    runMix(config, {"milc_06"}, options, &status);
    EXPECT_TRUE(status.converged());
    EXPECT_EQ(status.cores_completed, 1u);
    EXPECT_EQ(status.truncated_mask, 0u);
    EXPECT_EQ(status.detail(), "");
}

// --- per-point sweep outcomes -----------------------------------------

TEST(SweepFaults, FailedPointDoesNotAbortSweep)
{
    const SystemConfig base = SystemConfig::baseline(2);
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;
    const workload::Mix mix = {"libquantum_06", "milc_06"};

    SystemConfig broken = applyPolicy(base, PolicySetup::DemandFirst);
    broken.mshr_per_l2 = 0; // System construction throws

    const std::vector<SweepPoint> points = {
        {applyPolicy(base, PolicySetup::DemandFirst), mix, options},
        {broken, mix, options},
        {applyPolicy(base, PolicySetup::Padc), mix, options},
    };

    ParallelExperimentRunner runner(4);
    AloneIpcCache alone(base, options);
    const auto results = evaluateSweep(points, alone, runner);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_TRUE(results[2].ok());

    EXPECT_EQ(results[1].outcome.status, PointStatus::Failed);
    EXPECT_NE(results[1].outcome.detail.find("mshr_per_l2"),
              std::string::npos)
        << "diagnostic: " << results[1].outcome.detail;
    // A Failed point carries a default-empty value, not stale garbage.
    EXPECT_TRUE(results[1].value.metrics.cores.empty());

    // The good points match a serial evaluation exactly.
    AloneIpcCache serial_alone(base, options);
    const MixEvaluation serial =
        evaluateMix(points[0].config, mix, options, serial_alone);
    EXPECT_EQ(results[0].value.summary.ws, serial.summary.ws);
    EXPECT_EQ(results[0].value.metrics.totalTraffic(),
              serial.metrics.totalTraffic());
}

TEST(SweepFaults, TruncatedPointCarriesDiagnosticAndPartialValue)
{
    const SystemConfig base = SystemConfig::baseline(1);
    RunOptions ok_options;
    ok_options.instructions = 2000;
    ok_options.warmup = 0;
    RunOptions capped = ok_options;
    capped.instructions = 100000;
    capped.max_cycles = 200;

    const workload::Mix mix = {"milc_06"};
    const std::vector<SweepPoint> points = {
        {applyPolicy(base, PolicySetup::DemandFirst), mix, ok_options},
        {applyPolicy(base, PolicySetup::DemandFirst), mix, capped},
    };

    ParallelExperimentRunner runner(2);
    const auto results = runSweep(points, runner);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok());
    EXPECT_EQ(results[1].outcome.status, PointStatus::Truncated);
    EXPECT_NE(results[1].outcome.detail.find("cycle cap"),
              std::string::npos)
        << "diagnostic: " << results[1].outcome.detail;
    // Truncated points keep their frozen partial metrics.
    ASSERT_EQ(results[1].value.cores.size(), 1u);
    EXPECT_LT(results[1].value.cores[0].instructions,
              capped.instructions);
}

TEST(SweepFaults, TruncatedAloneRunFailsThePoint)
{
    // The point itself converges, but the alone runs that normalise it
    // hit their cycle cap: the point must fail, naming the alone run,
    // rather than divide by a partial alone IPC. The prewarm swallows
    // the failure and the point's own lookup raises it again.
    const SystemConfig base = SystemConfig::baseline(2);
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;
    RunOptions capped = options;
    capped.instructions = 100000;
    capped.max_cycles = 300;
    const std::vector<SweepPoint> points = {
        {applyPolicy(base, PolicySetup::Padc), {"milc_06", "swim_00"},
         options},
    };

    for (unsigned threads : {1u, 2u}) {
        ParallelExperimentRunner runner(threads);
        AloneIpcCache alone(base, capped);
        const auto results = evaluateSweep(points, alone, runner);
        ASSERT_EQ(results.size(), 1u);
        const PointOutcome &outcome = results[0].outcome;
        EXPECT_EQ(outcome.status, PointStatus::Failed);
        EXPECT_NE(outcome.detail.find("alone run of milc_06 on core 0, "
                                      "seed 0"),
                  std::string::npos)
            << "diagnostic: " << outcome.detail;
        EXPECT_NE(outcome.detail.find("300-cycle cap"), std::string::npos)
            << "diagnostic: " << outcome.detail;
        EXPECT_TRUE(results[0].value.metrics.cores.empty());
    }
}

TEST(SweepFaults, DescribePointNamesPolicyMixAndSeed)
{
    const SystemConfig base = SystemConfig::baseline(2);
    RunOptions options;
    options.mix_seed = 7;
    const SweepPoint point{applyPolicy(base, PolicySetup::Padc),
                           {"milc_06", "swim_00"}, options};
    const std::string text = describePoint(point);
    EXPECT_NE(text.find("apd"), std::string::npos) << text;
    EXPECT_NE(text.find("milc_06 swim_00"), std::string::npos) << text;
    EXPECT_NE(text.find("seed 7"), std::string::npos) << text;
}

TEST(SweepFaults, PointStatusToStringCoversAllStates)
{
    EXPECT_STREQ(toString(PointStatus::Ok), "ok");
    EXPECT_STREQ(toString(PointStatus::Truncated), "truncated");
    EXPECT_STREQ(toString(PointStatus::Failed), "failed");
}

} // namespace
} // namespace padc::sim
