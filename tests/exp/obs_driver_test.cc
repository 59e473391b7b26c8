/**
 * @file
 * Integration tests of `padc run --progress`, driving the real driver
 * binary (PADC_DRIVER_BIN) as subprocesses with stdout and stderr
 * captured SEPARATELY — the whole point of the --progress contract is
 * that stdout stays byte-identical while the human-facing progress
 * line rides on stderr, and that --out holds nothing but the BENCH
 * files.
 *
 * Covers the acceptance scenarios: a progress run prints the same
 * stdout as a plain one, and an interrupted sweep reports every point
 * once, on the progress line and in its BENCH file.
 */

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver_harness.hh"
#include "exp/json.hh"

namespace padc::exp
{
namespace
{

/** The last line of @p text, without its newline. */
std::string
lastLine(const std::string &text)
{
    std::istringstream in(text);
    std::string last;
    for (std::string line; std::getline(in, line);)
        last = line;
    return last;
}

/** How the final progress line of a whole smoke_grid sweep begins. */
const std::string kSmokeGridDone =
    "[padc] smoke_grid 9/9 done (0 replayed) | ";

/** The names of the files in @p dir. */
std::vector<std::string>
filesIn(const std::filesystem::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    return names;
}

/** @p text without its `[smoke_grid] ... sim-cycles in ...` footer. */
std::string
withoutFooter(const std::string &text)
{
    std::istringstream in(text);
    std::string kept;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("[smoke_grid] ", 0) == 0 &&
            line.find(" sim-cycles in ") != std::string::npos)
            continue;
        kept += line + "\n";
    }
    return kept;
}

TEST(ObsDriver, ProgressKeepsStdoutByteClean)
{
    // S1: --progress must not perturb stdout by a single byte: a
    // four-thread run prints what the same run without the flag prints,
    // bar the footer's timings, and every progress marker lands on
    // stderr.
    const auto dir = freshDir("stdout_clean");
    const auto run = [&](const std::string &name, bool progress) {
        std::vector<std::string> args = {"run", "smoke_grid", "--threads",
                                         "4", "--out",
                                         (dir / name).string()};
        if (progress)
            args.push_back("--progress");
        return runDriver(args, {}, (dir / (name + ".out")).string(),
                         (dir / (name + ".err")).string());
    };
    ASSERT_EQ(run("plain", false), 0);
    ASSERT_EQ(run("progress", true), 0);

    // Without the flag there is no progress line, and --out holds the
    // BENCH file alone.
    EXPECT_EQ(slurp(dir / "plain.err").find("[padc]"), std::string::npos);
    EXPECT_EQ(filesIn(dir / "plain"),
              std::vector<std::string>{"BENCH_smoke_grid.json"});

    const std::string out = slurp(dir / "progress.out");
    const std::string err = slurp(dir / "progress.err");
    EXPECT_EQ(withoutFooter(out), withoutFooter(slurp(dir / "plain.out")));
    EXPECT_EQ(out.find("[padc]"), std::string::npos);

    // The progress stream went to stderr instead, ending on the whole
    // sweep.
    EXPECT_EQ(lastLine(err).substr(0, kSmokeGridDone.size()),
              kSmokeGridDone)
        << err;

    // And its --out holds the BENCH file alone too.
    EXPECT_EQ(filesIn(dir / "progress"),
              std::vector<std::string>{"BENCH_smoke_grid.json"});
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, InterruptReportsEveryPoint)
{
    // An interrupt after the first point of a one-thread sweep: the
    // other eight never start, and each one reaches the monitor once
    // and the BENCH file as interrupted.
    const auto dir = freshDir("interrupt_threads");
    const auto out_dir = dir / "out";
    EXPECT_EQ(runDriver({"run", "smoke_grid", "--threads", "1",
                         "--progress", "--out", out_dir.string()},
                        {"PADC_TEST_INTERRUPT_AFTER=1"},
                        (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              130);
    const std::string err = slurp(dir / "stderr.log");
    EXPECT_EQ(lastLine(err).substr(0, kSmokeGridDone.size()),
              kSmokeGridDone)
        << err;

    JsonValue bench;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(out_dir / "BENCH_smoke_grid.json"), &bench,
                          &error))
        << error;
    const JsonValue *points = bench.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), 9u);
    std::size_t ok = 0;
    std::size_t interrupted = 0;
    for (const JsonValue &point : points->array) {
        ok += point.find("status")->string == "ok";
        interrupted += point.find("status")->string == "failed" &&
                       point.find("detail")->string == "interrupted";
    }
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(interrupted, 8u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace padc::exp
