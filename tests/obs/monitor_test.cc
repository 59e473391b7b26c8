/**
 * @file
 * FleetMonitor unit tests: each hook is driven directly with stderr
 * captured, and the progress lines it printed are read back. They pin
 * which count each point ending (ran, replayed, interrupted) moves and
 * that only ran points feed the rate.
 */

#include "obs/monitor.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace padc::obs
{
namespace
{

using Lines = std::vector<std::string>;

constexpr PointEnding Ran = PointEnding::Ran;
constexpr PointEnding Replayed = PointEnding::Replayed;
constexpr PointEnding Interrupted = PointEnding::Interrupted;

/** The lines of captured stderr, newlines stripped. */
Lines
splitLines(const std::string &text)
{
    Lines out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

/** Whether one of @p lines begins with @p prefix. */
bool
anyBegins(const Lines &lines, const std::string &prefix)
{
    return std::any_of(lines.begin(), lines.end(),
                       [&](const std::string &line) {
                           return line.rfind(prefix, 0) == 0;
                       });
}

// The hooks of one sweep come faster than the 4 Hz throttle, so only
// the forced lines of sweepStarted and sweepFinished are certain; a
// slow host may print more lines between them.

TEST(FleetMonitorTest, ClassifiesEveryFinishedPoint)
{
    testing::internal::CaptureStderr();
    {
        FleetMonitor monitor;
        monitor.sweepStarted("unit", 6);
        monitor.pointFinished(Ran);
        monitor.pointFinished(Ran);
        monitor.pointFinished(Replayed);
        monitor.pointFinished(Replayed);
        monitor.pointFinished(Interrupted);
        monitor.pointFinished(Ran);
        monitor.sweepFinished();
    }
    const Lines lines = splitLines(testing::internal::GetCapturedStderr());
    ASSERT_GE(lines.size(), 2u);
    EXPECT_EQ(lines.front(), "[padc] unit 0/6 done (0 replayed) | 0.00 "
                             "pts/s ETA --");
    // Every ending counts as done, only replays as replayed; the three
    // ran points give a rate, and nothing is left to wait for.
    const std::string head = "[padc] unit 6/6 done (2 replayed) | ";
    const std::string &last = lines.back();
    EXPECT_EQ(last.substr(0, head.size()), head) << last;
    EXPECT_EQ(last.find("| 0.00 pts/s"), std::string::npos) << last;
    EXPECT_NE(last.find(" pts/s ETA 0.0s"), std::string::npos) << last;
}

TEST(FleetMonitorTest, ResumeThenInterruptDrain)
{
    testing::internal::CaptureStderr();
    {
        FleetMonitor monitor;
        // A first sweep's counts and rate do not leak into the next one.
        monitor.sweepStarted("first", 2);
        monitor.pointFinished(Ran);
        monitor.pointFinished(Ran);
        monitor.sweepFinished();
        // Replays and an interrupt drain: done, but nothing ran.
        monitor.sweepStarted("unit", 3);
        monitor.pointFinished(Replayed);
        monitor.pointFinished(Replayed);
        monitor.pointFinished(Interrupted);
        monitor.sweepFinished();
    }
    const Lines lines = splitLines(testing::internal::GetCapturedStderr());
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(anyBegins(lines, "[padc] first 2/2 done (0 replayed) | "));
    EXPECT_TRUE(anyBegins(lines, "[padc] unit 0/3 done (0 replayed) | 0.00 "
                                 "pts/s ETA --"));
    EXPECT_EQ(lines.back(), "[padc] unit 3/3 done (2 replayed) | 0.00 "
                            "pts/s ETA --");
}

} // namespace
} // namespace padc::obs
