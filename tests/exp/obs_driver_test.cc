/**
 * @file
 * Fleet-observability integration tests of `padc run --progress` and
 * `padc status`, driving the real driver binary (PADC_DRIVER_BIN) as
 * subprocesses with stdout and stderr captured SEPARATELY — the whole
 * point of the --progress contract is that the machine-readable stdout
 * streams stay byte-clean while the human-facing progress line, the
 * events.jsonl log, and the status.json snapshot ride elsewhere.
 *
 * Covers the acceptance scenarios: an interrupted sweep reports every
 * point once, status.json stays a complete schema-valid snapshot
 * across a SIGKILLed run, the event log tail-repairs on resume, and
 * `padc status` renders both live and post-mortem state.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "obs/events.hh"
#include "obs/status.hh"

extern char **environ;

namespace padc::exp
{
namespace
{

std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("padc_obs_driver_" + name + "." +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Spawn PADC_DRIVER_BIN with stdout redirected to @p out_log and
 * stderr to @p err_log (separate files — the stdout-hygiene tests
 * depend on the split). Returns the child pid (or -1).
 */
pid_t
spawnDriver(const std::vector<std::string> &args,
            const std::vector<std::string> &env_extra,
            const std::string &out_log, const std::string &err_log)
{
    std::vector<std::string> argv_store = {PADC_DRIVER_BIN};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &arg : argv_store)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    std::vector<std::string> env_store;
    for (char **e = environ; *e != nullptr; ++e)
        env_store.push_back(*e);
    env_store.insert(env_store.end(), env_extra.begin(),
                     env_extra.end());
    std::vector<char *> envp;
    for (auto &entry : env_store)
        envp.push_back(entry.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     out_log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     err_log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, PADC_DRIVER_BIN, &actions,
                                 nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? pid : -1;
}

/** Wait for @p pid; exit status, or 128+signal when killed. */
int
waitDriver(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

int
runDriver(const std::vector<std::string> &args,
          const std::vector<std::string> &env_extra,
          const std::string &out_log, const std::string &err_log)
{
    const pid_t pid = spawnDriver(args, env_extra, out_log, err_log);
    EXPECT_GT(pid, 0);
    return pid > 0 ? waitDriver(pid) : -1;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
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

std::size_t
countEvents(const std::vector<obs::Event> &events,
            const std::string &type)
{
    std::size_t n = 0;
    for (const obs::Event &event : events)
        n += event.type == type ? 1 : 0;
    return n;
}

TEST(ObsDriver, ProgressKeepsJsonStdoutByteClean)
{
    // S1: with --format json, --progress must not perturb stdout by a
    // single byte — the whole stream is exactly one parseable JSON
    // document, and every progress marker lands on stderr.
    const auto dir = freshDir("stdout_clean");
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--format", "json",
                         "--progress", "--out", dir.string()},
                        {}, (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              0);

    const std::string out = slurp(dir / "stdout.log");
    const std::string err = slurp(dir / "stderr.log");

    // stdout is one JSON document and nothing else.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(out, &doc, &error)) << error;
    EXPECT_EQ(doc.find("schema")->string, "padc-bench-results-v1");
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.substr(out.find_last_not_of(" \n")).front(), '}');
    EXPECT_EQ(out.find("[padc]"), std::string::npos);

    // The progress stream went to stderr instead.
    EXPECT_NE(err.find("[padc] smoke_grid"), std::string::npos);
    EXPECT_NE(err.find("9/9"), std::string::npos);

    // And the sidecar files exist in --out.
    EXPECT_TRUE(std::filesystem::exists(dir / "status.json"));
    EXPECT_TRUE(std::filesystem::exists(dir / "events.jsonl"));
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, WithoutProgressNoSidecarFilesAppear)
{
    // Default runs must stay exactly as before: no monitor, no
    // events.jsonl, no status.json.
    const auto dir = freshDir("no_progress");
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--out", dir.string()}, {},
                        (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              0);
    EXPECT_FALSE(std::filesystem::exists(dir / "status.json"));
    EXPECT_FALSE(std::filesystem::exists(dir / "events.jsonl"));
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, PooledInterruptReportsEveryPoint)
{
    // An interrupt after the first point of a one-thread sweep: the
    // other eight never start, and each one reaches the monitor once.
    const auto dir = freshDir("interrupt_threads");
    EXPECT_EQ(runDriver({"run", "smoke_grid", "--threads", "1",
                         "--progress", "--out", dir.string()},
                        {"PADC_TEST_INTERRUPT_AFTER=1"},
                        (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              130);
    obs::SweepStatus s;
    std::vector<obs::Event> events;
    ASSERT_TRUE(obs::loadStatusFile((dir / "status.json").string(), &s));
    ASSERT_TRUE(
        obs::EventLog::load((dir / "events.jsonl").string(), &events));
    EXPECT_EQ(s.state, "interrupted");
    EXPECT_EQ(s.done, 9u);
    EXPECT_EQ(s.executed, 1u);
    EXPECT_EQ(s.replayed, 0u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(countEvents(events, "point_complete"), 1u);
    EXPECT_EQ(countEvents(events, "point_interrupted"), 8u);
    EXPECT_EQ(countEvents(events, "sweep_interrupted"), 1u);
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, StatusSubcommandRendersFinishedSweep)
{
    const auto dir = freshDir("status_cmd");
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--progress", "--out",
                         dir.string()},
                        {}, (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              0);

    ASSERT_EQ(runDriver({"status", dir.string()}, {},
                        (dir / "status_out.log").string(),
                        (dir / "status_err.log").string()),
              0);
    const std::string report = slurp(dir / "status_out.log");
    EXPECT_NE(report.find("sweep 'smoke_grid'"), std::string::npos);
    EXPECT_NE(report.find("finished"), std::string::npos);
    EXPECT_NE(report.find("9/9"), std::string::npos);

    // --json prints the snapshot itself, one parseable document.
    ASSERT_EQ(runDriver({"status", dir.string(), "--json"}, {},
                        (dir / "status_json.log").string(),
                        (dir / "status_json_err.log").string()),
              0);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(dir / "status_json.log"), &doc, &error))
        << error;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string, "padc-sweep-status-v2");
    ASSERT_NE(doc.find("state"), nullptr);
    EXPECT_EQ(doc.find("state")->string, "finished");
    ASSERT_NE(doc.find("done"), nullptr);
    EXPECT_EQ(doc.find("done")->number, 9.0);
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, StatusSubcommandFailsCleanlyWithoutStatusFile)
{
    const auto dir = freshDir("status_missing");
    EXPECT_EQ(runDriver({"status", dir.string()}, {},
                        (dir / "out.log").string(),
                        (dir / "err.log").string()),
              1);
    // A dir nothing ever ran in explains itself instead of dumping a
    // raw open(2) failure.
    EXPECT_NE(slurp(dir / "err.log").find("no sweep has run here"),
              std::string::npos);
    EXPECT_EQ(runDriver({"status", dir.string(), "--json"}, {},
                        (dir / "json_out.log").string(),
                        (dir / "json_err.log").string()),
              1);
    EXPECT_TRUE(slurp(dir / "json_out.log").empty());
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, KilledSupervisorLeavesValidStatusAndRepairableLog)
{
    // S4: kill -9 a one-thread tab07 run (one sweep of 65 points) once
    // about five points are journaled. The atomic-rename writer
    // guarantees status.json is a complete schema-valid snapshot, the
    // event log loses at most its torn tail, and a resumed run repairs
    // the tail and appends a sweep_resume record.
    constexpr std::size_t kPoints = 65;
    const auto dir = freshDir("kill9");
    const std::string journal = (dir / "sweep.padcjournal").string();
    const std::string events_path = (dir / "events.jsonl").string();

    const pid_t pid =
        spawnDriver({"run", "tab07", "--threads", "1", "--progress",
                     "--resume", journal, "--out", dir.string()},
                    {}, (dir / "out1.log").string(),
                    (dir / "err1.log").string());
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(awaitJournalLines(journal, 5));

    // Live observation mid-sweep: status.json is already a complete
    // snapshot and `padc status` renders it.
    obs::SweepStatus live;
    std::string error;
    ASSERT_TRUE(obs::loadStatusFile((dir / "status.json").string(),
                                    &live, &error))
        << error;
    EXPECT_EQ(live.state, "running");
    EXPECT_EQ(live.experiment, "tab07");
    EXPECT_EQ(live.total, kPoints);
    ASSERT_EQ(runDriver({"status", dir.string()}, {},
                        (dir / "live_out.log").string(),
                        (dir / "live_err.log").string()),
              0);
    EXPECT_NE(slurp(dir / "live_out.log").find("running"),
              std::string::npos);

    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    EXPECT_EQ(waitDriver(pid), 128 + SIGKILL);
    const std::size_t journaled = journalLines(journal);
    // A kill after the last point would leave nothing to resume.
    ASSERT_LT(journaled, kPoints)
        << "the killed run had already journaled every point";

    // Post-mortem: the snapshot is still complete and schema-valid.
    obs::SweepStatus dead;
    ASSERT_TRUE(obs::loadStatusFile((dir / "status.json").string(),
                                    &dead, &error))
        << error;
    EXPECT_EQ(dead.state, "running"); // nobody got to write "finished"
    EXPECT_EQ(dead.total, kPoints);

    // Simulate the kill having torn the event log mid-write.
    {
        std::ofstream torn(events_path,
                           std::ios::app | std::ios::binary);
        torn << "{\"padc\":\"padc-run-event-v1\",\"ev\":\"point_";
    }

    // Resume with --progress: the log tail-repairs, the journaled
    // points replay, and the monitor records a sweep_resume.
    ASSERT_EQ(runDriver({"run", "tab07", "--threads", "2", "--progress",
                         "--resume", journal, "--out", dir.string()},
                        {}, (dir / "out2.log").string(),
                        (dir / "err2.log").string()),
              0);
    EXPECT_EQ(journalLines(journal), kPoints);

    std::vector<obs::Event> events;
    ASSERT_TRUE(obs::EventLog::load(events_path, &events, &error))
        << error;
    EXPECT_EQ(countEvents(events, "sweep_start"), 1u);
    EXPECT_EQ(countEvents(events, "sweep_resume"), 1u);
    EXPECT_EQ(countEvents(events, "sweep_finish"), 1u);
    EXPECT_EQ(countEvents(events, "point_replay"), journaled);
    // The killed run may have journaled its last point without logging
    // it; every other point logged one completion.
    EXPECT_GE(countEvents(events, "point_complete"), kPoints - 1);

    obs::SweepStatus final_status;
    ASSERT_TRUE(obs::loadStatusFile((dir / "status.json").string(),
                                    &final_status, &error))
        << error;
    EXPECT_EQ(final_status.state, "finished");
    EXPECT_EQ(final_status.done, kPoints);
    EXPECT_EQ(final_status.replayed, journaled);
    EXPECT_EQ(final_status.executed, kPoints - journaled);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace padc::exp
