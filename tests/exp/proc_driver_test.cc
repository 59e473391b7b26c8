/**
 * @file
 * Kill-and-resume integration tests of `padc run`, driving the real
 * driver binary (PADC_DRIVER_BIN) as subprocesses: a SIGKILLed run must
 * resume exactly once from its journal, and SIGTERM (or the
 * PADC_TEST_INTERRUPT_AFTER hook) must stop gracefully into a partial
 * BENCH file and exit 130. The killed runs use fig09, whose one sweep
 * of 60 points lasts seconds on one thread, so the kill lands long
 * before the sweep ends.
 */

#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "driver_harness.hh"
#include "exp/json.hh"
#include "golden_line.hh"

namespace padc::exp
{
namespace
{

JsonValue
loadBench(const std::filesystem::path &dir,
          const std::string &experiment = "smoke_grid")
{
    JsonValue doc;
    std::string error;
    const auto path = dir / ("BENCH_" + experiment + ".json");
    EXPECT_TRUE(parseJson(slurp(path), &doc, &error))
        << path << ": " << error;
    return doc;
}

/** Journal lines on disk (complete, newline-terminated ones). */
std::size_t
journalLines(const std::string &path)
{
    const std::string text = slurp(path);
    std::size_t lines = 0;
    for (const char c : text)
        lines += c == '\n' ? 1 : 0;
    return lines;
}

/** fig09's one sweep: 5 policies x 12 mixes. */
constexpr std::size_t kFig09Points = 60;

/** Keys of the journal's complete lines (a torn tail is left out). */
std::set<std::uint64_t>
journalKeys(const std::string &path)
{
    std::string text = slurp(path);
    text.erase(text.rfind('\n') + 1); // drop a torn tail (or everything)
    std::istringstream lines(text);
    std::set<std::uint64_t> keys;
    for (std::string line; std::getline(lines, line);) {
        std::istringstream tokens(line);
        std::string tag, kind, key;
        if (tokens >> tag >> kind >> key)
            keys.insert(std::strtoull(key.c_str(), nullptr, 16));
    }
    return keys;
}

/** Poll until the journal holds @p want lines (sweep progress gate). */
bool
awaitJournalLines(const std::string &path, std::size_t want)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        if (journalLines(path) >= want)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

/** The fig09 lines of the committed golden points, in point order. */
std::vector<std::string>
goldenFig09Lines()
{
    std::ifstream in(PADC_GOLDEN_POINTS);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("fig09 ", 0) == 0)
            lines.push_back(line);
    }
    return lines;
}

TEST(ProcDriver, KilledSupervisorResumesExactlyOnce)
{
    // SIGKILL a one-thread fig09 run once about five points are
    // journaled, like a machine reaping a runaway job. The resume
    // replays exactly the journaled points (attempts 0), runs each
    // other point once, and matches the golden points of a straight
    // run bit for bit.
    const auto dir = freshDir("kill");
    const std::string journal = (dir / "sweep.padcjournal").string();
    const pid_t pid =
        spawnDriver({"run", "fig09", "--threads", "1", "--resume", journal,
                     "--out", dir.string()},
                    {}, (dir / "log1.txt").string());
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(awaitJournalLines(journal, 5));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    EXPECT_EQ(waitDriver(pid), 128 + SIGKILL);
    const std::set<std::uint64_t> journaled = journalKeys(journal);
    ASSERT_GE(journaled.size(), 5u);
    // A kill after the last point would leave nothing to resume.
    ASSERT_LT(journaled.size(), kFig09Points)
        << "the killed run had already journaled every point";

    ASSERT_EQ(runDriver({"run", "fig09", "--threads", "2", "--resume",
                         journal, "--out", dir.string()},
                        {}, (dir / "log2.txt").string()),
              0);
    EXPECT_EQ(journalLines(journal), kFig09Points);
    const std::set<std::uint64_t> recorded = journalKeys(journal);
    EXPECT_EQ(recorded.size(), kFig09Points);

    const std::vector<std::string> golden = goldenFig09Lines();
    ASSERT_EQ(golden.size(), kFig09Points);
    const JsonValue resumed = loadBench(dir, "fig09");
    const std::vector<JsonValue> &points = resumed.find("points")->array;
    ASSERT_EQ(points.size(), kFig09Points);
    std::set<std::uint64_t> keys;
    std::set<std::uint64_t> replayed;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const JsonValue &point = points[i];
        EXPECT_EQ(goldenLine("fig09", i, point), golden[i]);
        EXPECT_EQ(point.find("detail")->string, "") << i; // every point ok
        const std::uint64_t key =
            std::strtoull(point.find("key")->string.c_str(), nullptr, 16);
        keys.insert(key);
        const double attempts = point.find("attempts")->number;
        EXPECT_TRUE(attempts == 0.0 || attempts == 1.0) << attempts;
        if (attempts == 0.0)
            replayed.insert(key);
    }
    EXPECT_EQ(keys, recorded);
    EXPECT_EQ(replayed, journaled);

    std::filesystem::remove_all(dir);
}

TEST(ProcDriver, TestInterruptHookWritesPartialBenchAndExits130)
{
    // One thread makes the split exact: the first point completes and
    // every later one is interrupted. tab07 shows that its per-benchmark
    // points take the same sweep path as smoke_grid's grid.
    for (const auto &[experiment, total] :
         {std::pair<std::string, std::size_t>{"smoke_grid", 9},
          {"tab07", 65}}) {
        SCOPED_TRACE(experiment);
        const auto dir = freshDir("interrupt_" + experiment);
        EXPECT_EQ(runDriver({"run", experiment, "--threads", "1", "--out",
                             dir.string()},
                            {"PADC_TEST_INTERRUPT_AFTER=1"},
                            (dir / "log.txt").string()),
                  130);

        const JsonValue bench = loadBench(dir, experiment);
        ASSERT_NE(bench.find("interrupted"), nullptr);
        EXPECT_TRUE(bench.find("interrupted")->boolean);
        std::size_t ok = 0;
        std::size_t interrupted = 0;
        for (const JsonValue &point : bench.find("points")->array) {
            if (point.find("status")->string == "ok")
                ++ok;
            else if (point.find("detail")->string == "interrupted")
                ++interrupted;
        }
        EXPECT_EQ(ok, 1u);
        EXPECT_EQ(interrupted, total - 1);
        std::filesystem::remove_all(dir);
    }
}

TEST(ProcDriver, SigtermDrainsGracefully)
{
    // The one test of the real signal handler's route to
    // requestInterrupt (the PADC_TEST_INTERRUPT_AFTER cases bypass it):
    // SIGTERM a one-thread fig09 run mid-sweep. The point in flight
    // finishes and is journaled, every later one fails "interrupted"
    // unjournaled, and the partial BENCH file is still written.
    const auto dir = freshDir("sigterm");
    const std::string journal = (dir / "sweep.padcjournal").string();
    const pid_t pid =
        spawnDriver({"run", "fig09", "--threads", "1", "--resume", journal,
                     "--out", dir.string()},
                    {}, (dir / "log.txt").string());
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(awaitJournalLines(journal, 5));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    EXPECT_EQ(waitDriver(pid), 130);

    const JsonValue bench = loadBench(dir, "fig09");
    EXPECT_TRUE(bench.find("interrupted")->boolean);
    std::size_t ok = 0;
    std::size_t interrupted = 0;
    for (const JsonValue &point : bench.find("points")->array) {
        if (point.find("status")->string == "ok")
            ++ok;
        else if (point.find("detail")->string == "interrupted")
            ++interrupted;
    }
    EXPECT_GE(interrupted, 1u);
    EXPECT_EQ(ok + interrupted, kFig09Points);
    EXPECT_EQ(journalLines(journal), ok);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace padc::exp
