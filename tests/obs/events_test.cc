/**
 * @file
 * EventLog unit tests: the JSONL line format, write/load roundtrip,
 * append-across-reopen, torn-tail repair (the journal idiom), and
 * malformed-line tolerance in load().
 */

#include "obs/events.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/json.hh"

namespace padc
{
namespace
{

class EventLogTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("padc_events_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "events.jsonl").string();
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string fileText() const
    {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    std::filesystem::path dir_;
    std::string path_;
};

obs::Event
makeEvent(const std::string &type, std::int64_t point = -1)
{
    obs::Event event;
    event.type = type;
    event.t_ms = 1234;
    event.point = point;
    event.attempt = 2;
    event.detail = "status: some \"quoted\" detail";
    return event;
}

TEST_F(EventLogTest, FormatEventIsSingleLineTaggedJson)
{
    const std::string line = formatEvent(makeEvent("point_complete", 7));
    EXPECT_EQ(line.find('\n'), std::string::npos);

    exp::JsonValue root;
    std::string error;
    ASSERT_TRUE(exp::parseJson(line, &root, &error)) << error;
    ASSERT_NE(root.find("padc"), nullptr);
    EXPECT_EQ(root.find("padc")->string, obs::kEventSchema);
    EXPECT_EQ(root.find("ev")->string, "point_complete");
    EXPECT_DOUBLE_EQ(root.find("t_ms")->number, 1234.0);
    EXPECT_DOUBLE_EQ(root.find("point")->number, 7.0);
    EXPECT_DOUBLE_EQ(root.find("attempt")->number, 2.0);
    EXPECT_EQ(root.find("detail")->string,
              "status: some \"quoted\" detail");
}

TEST_F(EventLogTest, RecordLoadRoundtrip)
{
    {
        obs::EventLog log(path_);
        ASSERT_TRUE(log.ok()) << log.error();
        EXPECT_TRUE(log.record(makeEvent("sweep_start")));
        EXPECT_TRUE(log.record(makeEvent("point_complete", 0)));
        EXPECT_TRUE(log.record(makeEvent("sweep_finish")));
    }
    std::vector<obs::Event> events;
    std::string error;
    ASSERT_TRUE(obs::EventLog::load(path_, &events, &error)) << error;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].type, "sweep_start");
    EXPECT_EQ(events[1].type, "point_complete");
    EXPECT_EQ(events[1].point, 0);
    EXPECT_EQ(events[1].attempt, 2u);
    EXPECT_EQ(events[1].t_ms, 1234u);
    EXPECT_EQ(events[2].type, "sweep_finish");
}

TEST_F(EventLogTest, ReopenAppendsAfterExistingLines)
{
    {
        obs::EventLog log(path_);
        ASSERT_TRUE(log.ok());
        log.record(makeEvent("sweep_start"));
    }
    {
        obs::EventLog log(path_);
        ASSERT_TRUE(log.ok());
        log.record(makeEvent("sweep_resume"));
    }
    std::vector<obs::Event> events;
    ASSERT_TRUE(obs::EventLog::load(path_, &events));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, "sweep_start");
    EXPECT_EQ(events[1].type, "sweep_resume");
}

TEST_F(EventLogTest, TornTailIsRepairedOnReopen)
{
    {
        obs::EventLog log(path_);
        ASSERT_TRUE(log.ok());
        log.record(makeEvent("sweep_start"));
    }
    // Simulate a crash mid-write: an unterminated partial JSON line.
    {
        std::ofstream out(path_, std::ios::app | std::ios::binary);
        out << "{\"padc\":\"padc-run-event-v1\",\"ev\":\"point_co";
    }
    {
        obs::EventLog log(path_);
        ASSERT_TRUE(log.ok());
        log.record(makeEvent("sweep_resume"));
    }
    // The repaired file must still be one record per line: the torn
    // fragment got its terminating newline, so the new record did not
    // glue onto it.
    std::vector<obs::Event> events;
    ASSERT_TRUE(obs::EventLog::load(path_, &events));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, "sweep_start");
    EXPECT_EQ(events[1].type, "sweep_resume");
    EXPECT_NE(fileText().find("point_co\n"), std::string::npos);
}

TEST_F(EventLogTest, LoadSkipsMalformedAndForeignLines)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << formatEvent(makeEvent("sweep_start")) << "\n";
        out << "not json at all\n";
        out << "{\"schema\":\"something-else\",\"ev\":\"nope\"}\n";
        out << formatEvent(makeEvent("sweep_finish")) << "\n";
        out << "{\"padc\":\"padc-run-event-v1\",\"ev\":\"torn";
    }
    std::vector<obs::Event> events;
    ASSERT_TRUE(obs::EventLog::load(path_, &events));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, "sweep_start");
    EXPECT_EQ(events[1].type, "sweep_finish");
}

TEST_F(EventLogTest, LoadFailsOnMissingFile)
{
    std::vector<obs::Event> events;
    std::string error;
    EXPECT_FALSE(obs::EventLog::load((dir_ / "absent.jsonl").string(),
                                     &events, &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace padc
