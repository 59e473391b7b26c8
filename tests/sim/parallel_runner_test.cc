/**
 * @file
 * Tests for the ParallelExperimentRunner: index coverage, result
 * ordering, thread-count independence of results, reuse across batches,
 * and concurrent AloneIpcCache access (the TSan preset exercises the
 * locking here under real contention).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/parallel.hh"

namespace padc::sim
{
namespace
{

TEST(ParallelRunner, RunsEveryIndexExactlyOnce)
{
    ParallelExperimentRunner runner(4);
    constexpr std::size_t kJobs = 257; // not a multiple of the pool size
    std::vector<std::atomic<int>> hits(kJobs);
    runner.forEach(kJobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelRunner, MapOrdersResultsByIndexNotCompletion)
{
    ParallelExperimentRunner runner(4);
    const std::vector<std::uint64_t> out = runner.map<std::uint64_t>(
        100, [](std::size_t i) {
            // Unequal work so completion order differs from index order.
            volatile std::uint64_t acc = 0;
            for (std::size_t k = 0; k < (i % 7) * 1000; ++k)
                acc = acc + k;
            return static_cast<std::uint64_t>(i * i);
        });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, ResultsIndependentOfThreadCount)
{
    auto compute = [](ParallelExperimentRunner &runner) {
        return runner.map<double>(37, [](std::size_t i) {
            return static_cast<double>(i) * 1.5 + 1.0 / (i + 1);
        });
    };
    ParallelExperimentRunner serial(1);
    ParallelExperimentRunner pooled(8);
    EXPECT_EQ(compute(serial), compute(pooled));
}

TEST(ParallelRunner, ReusableAcrossBatches)
{
    ParallelExperimentRunner runner(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        const std::size_t n = 10 + round * 13;
        runner.forEach(n, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    }
    runner.forEach(0, [](std::size_t) { FAIL() << "empty batch ran a job"; });
}

TEST(ParallelRunner, ThreadCountRespectsConstructorArg)
{
    ParallelExperimentRunner one(1);
    EXPECT_EQ(one.threadCount(), 1u);
    ParallelExperimentRunner four(4);
    EXPECT_EQ(four.threadCount(), 4u);
    // 0 is the driver's "no --threads": hardware concurrency, at least 1.
    ParallelExperimentRunner dflt(0);
    EXPECT_EQ(dflt.threadCount(),
              std::max(1u, std::thread::hardware_concurrency()));
}

TEST(AloneIpcCacheParallel, ConcurrentLookupsMatchSerial)
{
    const SystemConfig base = SystemConfig::baseline(2);
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;

    // Two mixes sharing a profile: exercises cache hits under contention.
    const std::vector<workload::Mix> mixes = {
        {"libquantum_06", "milc_06"},
        {"milc_06", "swim_00"},
    };

    AloneIpcCache serial_cache(base, options);
    std::vector<double> serial;
    for (std::size_t i = 0; i < mixes.size(); ++i)
        for (std::uint32_t c = 0; c < mixes[i].size(); ++c)
            serial.push_back(serial_cache.ipcAlone(mixes[i][c], c, i));

    AloneIpcCache parallel_cache(base, options);
    ParallelExperimentRunner runner(4);
    parallel_cache.prewarm(mixes, 0, runner);
    std::vector<double> parallel;
    for (std::size_t i = 0; i < mixes.size(); ++i)
        for (std::uint32_t c = 0; c < mixes[i].size(); ++c)
            parallel.push_back(parallel_cache.ipcAlone(mixes[i][c], c, i));

    EXPECT_EQ(serial, parallel);
}

TEST(SweepApi, EvaluateSweepMatchesSerialEvaluateMix)
{
    const SystemConfig base = SystemConfig::baseline(2);
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;
    const workload::Mix mix = {"libquantum_06", "milc_06"};

    std::vector<SweepPoint> points;
    for (const auto setup :
         {PolicySetup::DemandFirst, PolicySetup::Padc}) {
        points.push_back({applyPolicy(base, setup), mix, options});
    }

    AloneIpcCache serial_cache(base, options);
    std::vector<MixEvaluation> serial;
    for (const auto &point : points)
        serial.push_back(
            evaluateMix(point.config, point.mix, point.options,
                        serial_cache));

    AloneIpcCache parallel_cache(base, options);
    ParallelExperimentRunner runner(4);
    const std::vector<Result<MixEvaluation>> pooled =
        evaluateSweep(points, parallel_cache, runner);

    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_TRUE(pooled[i].ok());
        EXPECT_EQ(pooled[i].value.summary.ws, serial[i].summary.ws);
        EXPECT_EQ(pooled[i].value.summary.hs, serial[i].summary.hs);
        EXPECT_EQ(pooled[i].value.summary.uf, serial[i].summary.uf);
        EXPECT_EQ(pooled[i].value.metrics.totalTraffic(),
                  serial[i].metrics.totalTraffic());
    }
}

} // namespace
} // namespace padc::sim
