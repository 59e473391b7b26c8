/**
 * @file
 * Tests for the sweep checkpoint/resume journal: key coverage,
 * bit-identical replay, kill-safety (partial trailing lines, corrupt
 * lines), the killed-then-resumed sweep acceptance criterion, and a
 * graceful stop raised mid-sweep by one runner thread.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "field_walk.hh"
#include "sim/experiment.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"
#include "sim/parallel.hh"

namespace padc::sim
{
namespace
{

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_journal_test." +
                std::to_string(::getpid()) + ".padcjournal";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    /**
     * The line a journal writes when it records @p result under @p key
     * (terminating '\n' included): fixtures built from it carry the
     * live line tag and a genuine record body.
     */
    std::string
    recordedLine(std::uint64_t key, const Result<MixEvaluation> &result)
    {
        const std::string line_path = path_ + ".line";
        std::remove(line_path.c_str());
        {
            SweepJournal journal(line_path);
            journal.record(key, result);
        }
        std::ifstream in(line_path, std::ios::binary);
        const std::string line((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        std::remove(line_path.c_str());
        return line;
    }

    std::string path_;
};

SystemConfig
base2()
{
    return SystemConfig::baseline(2);
}

RunOptions
quickOptions()
{
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;
    return options;
}

std::vector<SweepPoint>
twoPolicyPoints()
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    std::vector<SweepPoint> points;
    for (const auto setup :
         {PolicySetup::DemandFirst, PolicySetup::Padc}) {
        points.push_back(
            {applyPolicy(base2(), setup), mix, quickOptions()});
    }
    return points;
}

/** Every tabled leaf equal, doubles bit for bit. */
void
expectBitIdentical(const Result<MixEvaluation> &a,
                   const Result<MixEvaluation> &b)
{
    EXPECT_EQ(test::leafDump(a), test::leafDump(b));
}

/**
 * Points the sweep replayed from its journal: runPoints sets attempts
 * to 0 for those, and in an uninterrupted sweep for no other point.
 */
template <typename T>
std::size_t
replayedCount(const std::vector<Result<T>> &results)
{
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(), [](const auto &r) {
            return r.outcome.attempts == 0;
        }));
}

TEST(SweepPointKey, DistinguishesConfigMixSeedAndOptions)
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    const SweepPoint point{applyPolicy(base2(), PolicySetup::DemandFirst),
                           mix, quickOptions()};
    const std::uint64_t key = sweepPointKey(point);

    SweepPoint other = point;
    other.config = applyPolicy(base2(), PolicySetup::Padc);
    EXPECT_NE(sweepPointKey(other), key) << "policy not keyed";

    other = point;
    other.mix = {"milc_06", "libquantum_06"};
    EXPECT_NE(sweepPointKey(other), key) << "mix order not keyed";

    other = point;
    other.options.mix_seed = 1;
    EXPECT_NE(sweepPointKey(other), key) << "seed not keyed";

    other = point;
    other.options.instructions += 1;
    EXPECT_NE(sweepPointKey(other), key) << "instructions not keyed";

    other = point;
    other.config.dram.timing.tRCD += 1;
    EXPECT_NE(sweepPointKey(other), key) << "DRAM timing not keyed";

    // Identical points key identically (stability across calls).
    EXPECT_EQ(sweepPointKey(point), key);
}

TEST_F(JournalTest, RecordedEvalPointsReplayBitIdentical)
{
    const auto points = twoPolicyPoints();
    ParallelExperimentRunner runner(4);

    std::vector<Result<MixEvaluation>> first;
    {
        SweepJournal journal(path_);
        EXPECT_EQ(journal.loadedEntries(), 0u);
        AloneIpcCache alone(base2(), quickOptions());
        first = evaluateSweep(points, alone, runner, &journal);
        EXPECT_EQ(replayedCount(first), 0u);
    }

    // A fresh process over the same journal replays without recomputing:
    // the alone cache is never consulted, yet results are bit-identical.
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), points.size());
    AloneIpcCache cold_alone(base2(), quickOptions());
    const auto replayed =
        evaluateSweep(points, cold_alone, runner, &reopened);
    EXPECT_EQ(replayedCount(replayed), points.size());

    ASSERT_EQ(replayed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectBitIdentical(first[i], replayed[i]);
}

TEST_F(JournalTest, RunSweepEntriesRoundTrip)
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    const std::vector<SweepPoint> points = {
        {applyPolicy(base2(), PolicySetup::DemandFirst), mix,
         quickOptions()}};
    ParallelExperimentRunner runner(2);

    std::vector<Result<RunMetrics>> first;
    {
        SweepJournal journal(path_);
        first = runSweep(points, runner, &journal);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 1u);
    const auto replayed = runSweep(points, runner, &reopened);
    EXPECT_EQ(replayedCount(replayed), 1u);

    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].outcome.status, first[0].outcome.status);
    ASSERT_EQ(replayed[0].value.cores.size(), first[0].value.cores.size());
    for (std::size_t c = 0; c < first[0].value.cores.size(); ++c) {
        EXPECT_EQ(replayed[0].value.cores[c].ipc,
                  first[0].value.cores[c].ipc);
        EXPECT_EQ(replayed[0].value.cores[c].cycles,
                  first[0].value.cores[c].cycles);
    }
}

TEST_F(JournalTest, DuplicateLinesLoadAsOneEntry)
{
    // Two processes sharing one journal can each record the same point;
    // a journal concatenated with itself holds every point twice. It
    // loads one entry per point, and a resume replays each point once.
    const auto points = twoPolicyPoints();
    ParallelExperimentRunner runner(2);
    std::vector<Result<RunMetrics>> first;
    {
        SweepJournal journal(path_);
        first = runSweep(points, runner, &journal);
    }
    std::string text;
    {
        std::ifstream in(path_, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << text;
    }

    SweepJournal doubled(path_);
    EXPECT_EQ(doubled.loadedEntries(), points.size());
    const auto replayed = runSweep(points, runner, &doubled);
    EXPECT_EQ(replayedCount(replayed), points.size());
    ASSERT_EQ(replayed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(test::leafDump(replayed[i].value),
                  test::leafDump(first[i].value));
    }
}

TEST_F(JournalTest, EvalAndRunEntriesDoNotCollide)
{
    // The same key recorded under both kinds must stay two entries.
    Result<RunMetrics> run_result;
    run_result.value.cores.resize(1);
    run_result.value.cores[0].ipc = 1.5;
    Result<MixEvaluation> eval_result;
    eval_result.value.summary.ws = 2.5;

    {
        SweepJournal journal(path_);
        journal.record(42, run_result);
        journal.record(42, eval_result);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 2u);
    Result<RunMetrics> r;
    Result<MixEvaluation> e;
    EXPECT_TRUE(reopened.lookup(42, &r));
    EXPECT_TRUE(reopened.lookup(42, &e));
    EXPECT_EQ(r.value.cores.at(0).ipc, 1.5);
    EXPECT_EQ(e.value.summary.ws, 2.5);
    EXPECT_FALSE(reopened.lookup(43, &e));
}

TEST_F(JournalTest, FailedOutcomeRoundTripsWithDetail)
{
    Result<MixEvaluation> failed;
    failed.outcome.status = PointStatus::Failed;
    failed.outcome.detail = "invalid SystemConfig: mshr_per_l2: ...";
    {
        SweepJournal journal(path_);
        journal.record(7, failed);
    }
    SweepJournal reopened(path_);
    Result<MixEvaluation> loaded;
    ASSERT_TRUE(reopened.lookup(7, &loaded));
    EXPECT_EQ(loaded.outcome.status, PointStatus::Failed);
    EXPECT_EQ(loaded.outcome.detail, failed.outcome.detail);
}

TEST_F(JournalTest, PartialTrailingLineIsDropped)
{
    Result<MixEvaluation> result;
    result.value.summary.ws = 1.25;
    {
        SweepJournal journal(path_);
        journal.record(1, result);
    }
    // Simulate a process killed mid-append: a final line with no '\n'.
    // Only the missing newline marks it torn; the rest is a genuine
    // record, so a loader that ignored the newline would accept it.
    Result<MixEvaluation> torn;
    torn.value.summary.ws = 2.5;
    const std::string line = recordedLine(0xdeadbeef, torn);
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << line.substr(0, line.size() - 1);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 1u);
    Result<MixEvaluation> loaded;
    EXPECT_TRUE(reopened.lookup(1, &loaded));
    EXPECT_EQ(loaded.value.summary.ws, 1.25);
    Result<MixEvaluation> missing;
    EXPECT_FALSE(reopened.lookup(0xdeadbeef, &missing));
}

TEST_F(JournalTest, AppendAfterTornTailDoesNotMergeLines)
{
    Result<MixEvaluation> first;
    first.value.summary.ws = 1.25;
    {
        SweepJournal journal(path_);
        journal.record(1, first);
    }
    // A run killed mid-append leaves a torn final line. A later
    // resume must not glue its first fresh record onto that tail: the
    // journal terminates the tail at open so both stay separate lines.
    const std::string line = recordedLine(0xdeadbeef, first);
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << line.substr(0, line.size() / 2);
    }
    Result<MixEvaluation> second;
    second.value.summary.hs = 0.75;
    {
        SweepJournal resumed(path_);
        EXPECT_EQ(resumed.loadedEntries(), 1u);
        resumed.record(2, second);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 2u);
    Result<MixEvaluation> loaded;
    ASSERT_TRUE(reopened.lookup(1, &loaded));
    EXPECT_EQ(loaded.value.summary.ws, 1.25);
    ASSERT_TRUE(reopened.lookup(2, &loaded));
    EXPECT_EQ(loaded.value.summary.hs, 0.75);
    EXPECT_FALSE(reopened.lookup(0xdeadbeef, &loaded));
}

TEST_F(JournalTest, CorruptCompleteLinesAreSkippedNotFatal)
{
    Result<MixEvaluation> result;
    result.value.summary.ws = 1.25;
    const std::string line = recordedLine(0x10, result);
    const std::string head = line.substr(0, line.find('{'));
    ASSERT_EQ(head, line.substr(0, line.find(' ')) + " e 10 ");
    {
        std::ofstream out(path_, std::ios::binary);
        // Live tag, corrupt JSON body: only the load-time payload check
        // rejects these two.
        out << line.substr(0, line.size() - 3) << "\n";
        out << head << "{\"value\": 1, \"outcome\": {}}\n";
        out << "garbage line entirely\n";
        out << head.substr(0, head.find(' ')) << " q 11 "
            << line.substr(head.size()); // unknown kind
    }
    SweepJournal journal(path_);
    EXPECT_EQ(journal.loadedEntries(), 0u);
    Result<MixEvaluation> out;
    EXPECT_FALSE(journal.lookup(0x10, &out));
    // The journal is still usable for appends after skipping junk.
    Result<MixEvaluation> fresh;
    fresh.value.summary.hs = 0.5;
    journal.record(0x20, fresh);
    EXPECT_TRUE(journal.lookup(0x20, &fresh));
}

TEST_F(JournalTest, PreviousFormatLoadsAsAMissAndThePointReruns)
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    const std::vector<SweepPoint> points = {
        {applyPolicy(base2(), PolicySetup::DemandFirst), mix,
         quickOptions()}};
    {
        // A complete record as the padcj2 format (hex tokens) wrote it.
        std::ofstream out(path_, std::ios::binary);
        out << "padcj2 r " << std::hex << sweepPointKey(points[0])
            << " 0 - 1 3ff8000000000000 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n";
    }
    SweepJournal journal(path_);
    EXPECT_EQ(journal.loadedEntries(), 0u);
    ParallelExperimentRunner runner(1);
    const auto results = runSweep(points, runner, &journal);
    EXPECT_EQ(replayedCount(results), 0u);
    EXPECT_EQ(results[0].outcome.attempts, 1u) << "point was not rerun";
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 1u); // the rerun's new record
}

TEST_F(JournalTest, KilledThenResumedSweepIsBitIdenticalToStraightRun)
{
    // Four points: two policies x two seeds.
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    std::vector<SweepPoint> points;
    for (const auto setup :
         {PolicySetup::DemandFirst, PolicySetup::Padc}) {
        for (std::uint64_t seed : {0u, 1u}) {
            RunOptions options = quickOptions();
            options.mix_seed = seed;
            points.push_back({applyPolicy(base2(), setup), mix, options});
        }
    }
    ParallelExperimentRunner runner(4);

    // Reference: one uninterrupted, journal-free run.
    AloneIpcCache ref_alone(base2(), quickOptions());
    const auto reference = evaluateSweep(points, ref_alone, runner);

    // "First process": completes only the first half, then dies (the
    // journal object goes away; the file stays).
    {
        SweepJournal journal(path_);
        AloneIpcCache alone(base2(), quickOptions());
        const std::vector<SweepPoint> half(points.begin(),
                                           points.begin() + 2);
        evaluateSweep(half, alone, runner, &journal);
    }

    // "Second process": resumes the full sweep from the journal.
    SweepJournal resumed(path_);
    EXPECT_EQ(resumed.loadedEntries(), 2u);
    AloneIpcCache alone(base2(), quickOptions());
    const auto results = evaluateSweep(points, alone, runner, &resumed);
    EXPECT_EQ(replayedCount(results), 2u); // first half replayed, not rerun

    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectBitIdentical(reference[i], results[i]);
    }
}

TEST_F(JournalTest, StopRaisedOnOneRunnerThreadStopsTheOthersAndResumes)
{
    // Twelve distinct points on four threads. The test hook raises the
    // stop flag from whichever runner thread completes the second point
    // while the other threads poll it before each point, so under the tsan
    // preset this is the cross-thread check of the flag.
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    std::vector<SweepPoint> points;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        RunOptions options = quickOptions();
        options.mix_seed = seed;
        points.push_back(
            {applyPolicy(base2(), PolicySetup::Padc), mix, options});
    }
    ParallelExperimentRunner runner(4);

    ::setenv("PADC_TEST_INTERRUPT_AFTER", "2", 1);
    resetInterruptState();
    std::vector<Result<RunMetrics>> first;
    {
        SweepJournal journal(path_);
        first = runSweep(points, runner, &journal);
    }
    ::unsetenv("PADC_TEST_INTERRUPT_AFTER");
    resetInterruptState();

    std::size_t ok = 0;
    for (const auto &result : first) {
        if (result.outcome.status == PointStatus::Ok) {
            ++ok;
            EXPECT_EQ(result.outcome.attempts, 1u);
        } else {
            EXPECT_EQ(result.outcome.status, PointStatus::Failed);
            EXPECT_EQ(result.outcome.detail, kInterruptedDetail);
            EXPECT_EQ(result.outcome.attempts, 0u);
        }
    }
    // The two points that spent the budget, plus at most the three the
    // other threads had already started when the flag rose.
    EXPECT_GE(ok, 2u);
    EXPECT_LE(ok, 5u);

    // Only the finished points were journaled; a resume replays exactly
    // those and runs the rest.
    SweepJournal resumed(path_);
    EXPECT_EQ(resumed.loadedEntries(), ok);
    const auto second = runSweep(points, runner, &resumed);
    EXPECT_EQ(replayedCount(second), ok);
    ASSERT_EQ(second.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(second[i].outcome.status, PointStatus::Ok);
        EXPECT_EQ(second[i].outcome.attempts,
                  first[i].outcome.status == PointStatus::Ok ? 0u : 1u);
    }
}

TEST(JournalErrors, UnopenablePathThrows)
{
    EXPECT_THROW(SweepJournal("/nonexistent-dir/padc.journal"),
                 std::runtime_error);
}

} // namespace
} // namespace padc::sim
