/**
 * @file
 * FleetMonitor unit tests: each hook is driven directly on a temp
 * --out directory, then status.json is read back through
 * loadStatusFile and the whole of events.jsonl through EventLog::load.
 * They pin which counter and event each point ending (executed,
 * replayed, interrupted, quarantined, stranded) and each other hook
 * moves, for the in-thread runner and the process pool alike.
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
constexpr PointEnding Quarantined = PointEnding::Quarantined;
constexpr PointEnding Stranded = PointEnding::Stranded;

const std::string kFate = "killed by signal 9 (Killed)";

/** A fresh --out directory per test, removed afterwards. */
class FleetMonitorTest : public testing::Test
{
  protected:
    void SetUp() override { std::filesystem::create_directories(dir_); }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /**
     * status.json as "state experiment total done executed replayed
     * failed retries quarantined active_workers", then one
     * "| pid tasks kills busy" per worker slot.
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
             {s.total, s.done, s.executed, s.replayed, s.failed, s.retries,
              s.quarantined, s.active_workers})
            out += " " + std::to_string(n);
        for (const WorkerStatus &w : s.workers) {
            out += " | " + std::to_string(w.pid) + " " +
                   std::to_string(w.tasks) + " " + std::to_string(w.kills) +
                   (w.busy ? " busy" : " idle");
        }
        return out;
    }

    /** Every event as "type point worker attempt detail", in order. */
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
                          std::to_string(e.worker) + " " +
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
    monitor.sweepStarted("unit", 8, 0);
    monitor.pointFinished(0, Ran, "ok", 1, "");                  // executed
    monitor.pointFinished(1, Ran, "failed", 1, "boom");          // + failed
    monitor.pointFinished(2, Replayed, "ok", 0, "");             // replayed
    monitor.pointFinished(3, Replayed, "failed", 0, "boom");     // + failed
    monitor.pointFinished(4, Interrupted, "failed", 0, "interrupted");
    monitor.pointFinished(5, Interrupted, "failed", 1, "interrupted");
    monitor.pointRetried(6, 1, kFate);
    monitor.pointFinished(6, Ran, "ok", 2, "");
    monitor.pointRetried(7, 1, kFate);
    monitor.pointFinished(7, Quarantined, "failed", 3, kFate);
    monitor.sweepFinished(false);
    // executed: 0 1 6; replayed: 2 3; failed: 1 3 7.
    EXPECT_EQ(status(), "finished unit 8 8 3 2 3 2 1 0");
    // Retries and quarantines carry the death, not a pid: the
    // worker_exit event before them names the worker.
    EXPECT_EQ(events(), (Lines{"sweep_start -1 -1 0 unit",
                               "point_complete 0 -1 1 ok",
                               "point_complete 1 -1 1 failed: boom",
                               "point_replay 2 -1 0 ok",
                               "point_replay 3 -1 0 failed: boom",
                               "point_interrupted 4 -1 0 failed: interrupted",
                               "point_interrupted 5 -1 1 failed: interrupted",
                               "point_retry 6 -1 1 " + kFate,
                               "point_complete 6 -1 2 ok",
                               "point_retry 7 -1 1 " + kFate,
                               "point_quarantine 7 -1 0 " + kFate,
                               "sweep_finish -1 -1 0 unit"}));
}

TEST_F(FleetMonitorTest, StrandedPointsFailWithoutRunningOrReplaying)
{
    // No worker was left to run them: one had been dispatched once, the
    // other never. Neither executed nor replayed, both failed.
    const std::string stranded = "no live workers left to run the point";
    FleetMonitor monitor(dir_.string());
    monitor.sweepStarted("unit", 3, 0);
    monitor.pointFinished(0, Ran, "ok", 1, "", 0, 1000);
    monitor.pointFinished(1, Stranded, "failed", 1, stranded);
    monitor.pointFinished(2, Stranded, "failed", 0, stranded);
    monitor.sweepFinished(false);
    EXPECT_EQ(status(), "finished unit 3 3 1 0 2 0 0 0 | -1 1 0 idle");
    EXPECT_EQ(events(), (Lines{"sweep_start -1 -1 0 unit",
                               "point_complete 0 1000 1 ok",
                               "point_stranded 1 -1 1 failed: " + stranded,
                               "point_stranded 2 -1 0 failed: " + stranded,
                               "sweep_finish -1 -1 0 unit"}));
}

TEST_F(FleetMonitorTest, WorkerHooksTrackEverySlot)
{
    const std::string timeout = "timed out after 300ms (killed)";
    FleetMonitor monitor(dir_.string());
    monitor.sweepStarted("unit", 2, 0);
    monitor.workerSpawned(0, 1000);
    monitor.workerSpawned(1, 1001);
    monitor.pointDispatched(0, 0, 1000);
    monitor.pointDispatched(1, 1, 1001);
    monitor.pointFinished(0, Ran, "ok", 1, "", 0, 1000);
    monitor.workerTimedOut(1, 1001, 1);
    monitor.workerExited(1, 1001, timeout);
    monitor.pointRetried(1, 1, timeout);
    monitor.workerSpawned(1, 1002);
    monitor.pointDispatched(1, 1, 1002);
    monitor.pointFinished(1, Ran, "ok", 2, "", 1, 1002);
    monitor.sweepFinished(false);
    EXPECT_EQ(status(),
              "finished unit 2 2 2 0 0 1 0 2 | 1000 1 0 idle | 1002 1 1 idle");
    EXPECT_EQ(events(), (Lines{"sweep_start -1 -1 0 unit",
                               "worker_spawn -1 1000 0 slot 0",
                               "worker_spawn -1 1001 0 slot 1",
                               "point_dispatch 0 1000 0 ",
                               "point_dispatch 1 1001 0 ",
                               "point_complete 0 1000 1 ok",
                               "worker_timeout 1 1001 0 heartbeat timeout",
                               "worker_exit -1 1001 0 " + timeout,
                               "point_retry 1 -1 1 " + timeout,
                               "worker_spawn -1 1002 0 slot 1",
                               "point_dispatch 1 1002 0 ",
                               "point_complete 1 1002 2 ok",
                               "sweep_finish -1 -1 0 unit"}));
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
    monitor.interruptDrain();
    monitor.pointFinished(2, Interrupted, "failed", 1, "interrupted");
    monitor.sweepFinished(true);
    EXPECT_EQ(status(), "interrupted unit 3 3 0 2 0 0 0 0");
    EXPECT_EQ(events(),
              (Lines{"sweep_start -1 -1 0 first",
                     "point_complete 0 -1 1 ok",
                     "sweep_finish -1 -1 0 first",
                     "sweep_resume -1 -1 2 unit",
                     "point_replay 0 -1 0 ok",
                     "point_replay 1 -1 0 ok",
                     "interrupt_drain -1 -1 0 draining in-flight points",
                     "point_interrupted 2 -1 1 failed: interrupted",
                     "sweep_interrupted -1 -1 0 unit"}));
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
