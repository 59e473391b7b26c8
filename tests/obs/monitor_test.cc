/**
 * @file
 * FleetMonitor unit tests: each hook is driven directly on a temp
 * --out directory, then status.json is read back through
 * loadStatusFile and the whole of events.jsonl through EventLog::load.
 * They pin which counter and event each point ending (executed,
 * replayed, interrupted) and each sweep hook moves.
 */

#include "obs/monitor.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
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

/** A fresh --out directory per test, removed afterwards. */
class FleetMonitorTest : public testing::Test
{
  protected:
    void SetUp() override { std::filesystem::create_directories(dir_); }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /**
     * status.json as "state experiment total done executed replayed
     * failed".
     */
    std::string status() const
    {
        SweepStatus s;
        std::string error;
        EXPECT_TRUE(
            loadStatusFile((dir_ / kStatusFileName).string(), &s, &error))
            << error;
        std::string out = s.state + " " + s.experiment;
        for (const std::uint64_t n :
             {s.total, s.done, s.executed, s.replayed, s.failed})
            out += " " + std::to_string(n);
        return out;
    }

    /** Every event as "type point attempt detail", in order. */
    Lines events() const
    {
        std::vector<Event> log;
        std::string error;
        EXPECT_TRUE(
            EventLog::load((dir_ / kEventsFileName).string(), &log, &error))
            << error;
        Lines out;
        for (const Event &e : log) {
            out.push_back(e.type + " " + std::to_string(e.point) + " " +
                          std::to_string(e.attempt) + " " + e.detail);
        }
        return out;
    }

    const std::filesystem::path dir_ =
        std::filesystem::temp_directory_path() /
        ("padc_monitor_test." + std::to_string(::getpid()));
};

TEST_F(FleetMonitorTest, ClassifiesEveryFinishedPoint)
{
    FleetMonitor monitor(dir_.string());
    monitor.sweepStarted("unit", 6, 0);
    monitor.pointFinished(0, Ran, "ok", 1, "");                  // executed
    monitor.pointFinished(1, Ran, "failed", 1, "boom");          // + failed
    monitor.pointFinished(2, Replayed, "ok", 0, "");             // replayed
    monitor.pointFinished(3, Replayed, "failed", 0, "boom");     // + failed
    monitor.pointFinished(4, Interrupted, "failed", 0, "interrupted");
    monitor.pointFinished(5, Ran, "truncated", 1, "cap");        // + failed
    monitor.sweepFinished(false);
    // executed: 0 1 5; replayed: 2 3; failed: 1 3 5.
    EXPECT_EQ(status(), "finished unit 6 6 3 2 3");
    EXPECT_EQ(events(), (Lines{"sweep_start -1 0 unit",
                               "point_complete 0 1 ok",
                               "point_complete 1 1 failed: boom",
                               "point_replay 2 0 ok",
                               "point_replay 3 0 failed: boom",
                               "point_interrupted 4 0 failed: interrupted",
                               "point_complete 5 1 truncated: cap",
                               "sweep_finish -1 0 unit"}));
}

TEST_F(FleetMonitorTest, ResumeThenInterruptDrain)
{
    FleetMonitor monitor(dir_.string());
    // A first sweep's counters do not leak into the next one.
    monitor.sweepStarted("first", 1, 0);
    monitor.pointFinished(0, Ran, "ok", 1, "");
    monitor.sweepFinished(false);
    // sweep_resume's attempt is the number of journal entries loaded.
    monitor.sweepStarted("unit", 3, 2);
    monitor.pointFinished(0, Replayed, "ok", 0, "");
    monitor.pointFinished(1, Replayed, "ok", 0, "");
    monitor.pointFinished(2, Interrupted, "failed", 0, "interrupted");
    monitor.sweepFinished(true);
    EXPECT_EQ(status(), "interrupted unit 3 3 0 2 0");
    EXPECT_EQ(events(),
              (Lines{"sweep_start -1 0 first",
                     "point_complete 0 1 ok",
                     "sweep_finish -1 0 first",
                     "sweep_resume -1 2 unit",
                     "point_replay 0 0 ok",
                     "point_replay 1 0 ok",
                     "point_interrupted 2 0 failed: interrupted",
                     "sweep_interrupted -1 0 unit"}));
}

TEST_F(FleetMonitorTest, UnopenableEventLogIsReportedAndLeftOff)
{
    const auto absent = dir_ / "absent";
    testing::internal::CaptureStderr();
    FleetMonitor monitor(absent.string());
    monitor.sweepStarted("unit", 1, 0);
    monitor.pointFinished(0, Ran, "ok", 1, "");
    monitor.sweepFinished(false);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("padc: EventLog: cannot open"), std::string::npos)
        << err;
    // The progress line still runs; nothing is written anywhere.
    EXPECT_NE(err.find("[padc] unit 1/1 done"), std::string::npos) << err;
    EXPECT_FALSE(std::filesystem::exists(absent));
}

} // namespace
} // namespace padc::obs
