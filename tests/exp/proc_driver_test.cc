/**
 * @file
 * Kill-matrix integration tests of `padc run --workers N`, driving the
 * real driver binary (PADC_DRIVER_BIN) as subprocesses: fault-injected
 * pooled runs must be bit-identical to fault-free in-thread runs,
 * poison points must surface as quarantined failures, a SIGKILLed
 * supervisor must resume exactly-once from its journal, and
 * SIGINT/SIGTERM must drain gracefully into a partial BENCH file.
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
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hh"

extern char **environ;

namespace padc::exp
{
namespace
{

std::filesystem::path
freshDir(const std::string &name)
{
    // Unique per process: ctest runs this suite both as individual
    // cases and as one whole-binary smoke test, concurrently.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("padc_proc_driver_" + name + "." +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Spawn PADC_DRIVER_BIN with extra environment entries, stdout/stderr
 * redirected to @p log. Returns the child pid (or -1).
 */
pid_t
spawnDriver(const std::vector<std::string> &args,
            const std::vector<std::string> &env_extra,
            const std::string &log)
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
                                     log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
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
          const std::string &log)
{
    const pid_t pid = spawnDriver(args, env_extra, log);
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

/** Poll until the journal holds @p want lines (worker progress gate). */
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

/**
 * Compare the simulation-outcome half of two BENCH documents: key,
 * label, status, detail, cycles, and every metric value of every
 * point. Deliberately ignores attempts/last_error (those describe the
 * execution, which fault injection legitimately changes) and the
 * wall-clock/profile blocks.
 */
void
expectSamePoints(const JsonValue &a, const JsonValue &b)
{
    const JsonValue *pa = a.find("points");
    const JsonValue *pb = b.find("points");
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    ASSERT_EQ(pa->array.size(), pb->array.size());
    for (std::size_t i = 0; i < pa->array.size(); ++i) {
        const JsonValue &x = pa->array[i];
        const JsonValue &y = pb->array[i];
        EXPECT_EQ(x.find("key")->string, y.find("key")->string) << i;
        EXPECT_EQ(x.find("label")->string, y.find("label")->string) << i;
        EXPECT_EQ(x.find("status")->string, y.find("status")->string)
            << i;
        EXPECT_EQ(x.find("detail")->string, y.find("detail")->string)
            << i;
        EXPECT_EQ(x.find("cycles")->number, y.find("cycles")->number)
            << i;
        const JsonValue *ma = x.find("metrics");
        const JsonValue *mb = y.find("metrics");
        ASSERT_EQ(ma->object.size(), mb->object.size()) << i;
        for (const auto &[name, value] : ma->object) {
            const JsonValue *other = mb->find(name);
            ASSERT_NE(other, nullptr) << i << "." << name;
            EXPECT_EQ(value.number, other->number) << i << "." << name;
        }
    }
}

TEST(ProcDriver, CrashFaultedWorkersMatchInThreadBitIdentically)
{
    const auto ref_dir = freshDir("ref");
    const auto pool_dir = freshDir("pool");
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--workers", "0", "--out",
                         ref_dir.string()},
                        {}, (ref_dir / "log.txt").string()),
              0);
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--workers", "2", "--out",
                         pool_dir.string()},
                        {"PADC_FAULT_INJECT=crash:3",
                         "PADC_RETRY_BACKOFF_MS=1"},
                        (pool_dir / "log.txt").string()),
              0);

    const JsonValue ref = loadBench(ref_dir);
    const JsonValue pool = loadBench(pool_dir);
    expectSamePoints(ref, pool);

    // crash:3 fires on indices 2, 5, 8: those points must show the
    // retry in their attempt count and crash diagnostics.
    std::size_t retried = 0;
    for (const JsonValue &point : pool.find("points")->array) {
        if (point.find("attempts")->number > 1.0) {
            ++retried;
            EXPECT_NE(point.find("last_error")->string.find("signal 9"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(retried, 3u);
    EXPECT_NE(slurp(pool_dir / "log.txt")
                  .find("succeeded after worker retries"),
              std::string::npos);

    std::filesystem::remove_all(ref_dir);
    std::filesystem::remove_all(pool_dir);
}

TEST(ProcDriver, PoisonPointIsQuarantinedWithDiagnostics)
{
    const auto dir = freshDir("poison");
    EXPECT_EQ(runDriver({"run", "smoke_grid", "--workers", "2", "--out",
                         dir.string()},
                        {"PADC_FAULT_INJECT=poison:4",
                         "PADC_RETRY_BACKOFF_MS=1"},
                        (dir / "log.txt").string()),
              1);

    const JsonValue bench = loadBench(dir);
    const auto &points = bench.find("points")->array;
    ASSERT_EQ(points.size(), 9u);
    EXPECT_EQ(points[4].find("status")->string, "failed");
    EXPECT_NE(points[4].find("detail")->string.find("quarantined"),
              std::string::npos);
    EXPECT_NE(points[4].find("detail")->string.find("signal 9"),
              std::string::npos);
    for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 7u, 8u})
        EXPECT_EQ(points[i].find("status")->string, "ok") << i;
    std::filesystem::remove_all(dir);
}

TEST(ProcDriver, KilledSupervisorResumesExactlyOnce)
{
    const auto ref_dir = freshDir("kill_ref");
    const auto dir = freshDir("kill");
    const std::string journal = (dir / "sweep.padcjournal").string();
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--workers", "0", "--out",
                         ref_dir.string()},
                        {}, (ref_dir / "log.txt").string()),
              0);

    // hang:9 wedges the worker on the last point (index 8) while the
    // other eight complete and hit the journal; SIGKILL the supervisor
    // mid-hang, exactly like a machine reaping a runaway job.
    const pid_t pid =
        spawnDriver({"run", "smoke_grid", "--workers", "2", "--resume",
                     journal, "--out", dir.string()},
                    {"PADC_FAULT_INJECT=hang:9",
                     "PADC_WORKER_TIMEOUT_MS=600000"},
                    (dir / "log1.txt").string());
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(awaitJournalLines(journal, 8));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    EXPECT_EQ(waitDriver(pid), 128 + SIGKILL);

    // Resume fault-free: the eight journaled points must replay
    // (attempts 0), only the killed point runs, and the merged result
    // is bit-identical to the straight in-thread run.
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--workers", "2",
                         "--resume", journal, "--out", dir.string()},
                        {}, (dir / "log2.txt").string()),
              0);
    EXPECT_EQ(journalLines(journal), 9u);

    const JsonValue resumed = loadBench(dir);
    expectSamePoints(loadBench(ref_dir), resumed);
    std::size_t replayed = 0;
    std::size_t executed = 0;
    for (const JsonValue &point : resumed.find("points")->array) {
        if (point.find("attempts")->number == 0.0)
            ++replayed;
        else
            ++executed;
    }
    EXPECT_EQ(replayed, 8u);
    EXPECT_EQ(executed, 1u);

    std::filesystem::remove_all(ref_dir);
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
        EXPECT_EQ(runDriver({"run", experiment, "--threads", "1",
                             "--workers", "0", "--out", dir.string()},
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

TEST(ProcDriver, SigtermDrainsHungPoolGracefully)
{
    const auto dir = freshDir("sigterm");
    const std::string journal = (dir / "sweep.padcjournal").string();
    const pid_t pid =
        spawnDriver({"run", "smoke_grid", "--workers", "2", "--resume",
                     journal, "--out", dir.string()},
                    {"PADC_FAULT_INJECT=hang:9",
                     "PADC_WORKER_TIMEOUT_MS=600000"},
                    (dir / "log.txt").string());
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(awaitJournalLines(journal, 8));
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    // Graceful: the driver kills the wedged worker rather than waiting
    // out its 10-minute timeout, flushes, and still writes the BENCH.
    EXPECT_EQ(waitDriver(pid), 130);

    const JsonValue bench = loadBench(dir);
    EXPECT_TRUE(bench.find("interrupted")->boolean);
    std::size_t interrupted = 0;
    for (const JsonValue &point : bench.find("points")->array)
        interrupted +=
            point.find("detail")->string == "interrupted" ? 1 : 0;
    EXPECT_GE(interrupted, 1u);
    EXPECT_EQ(journalLines(journal), 8u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace padc::exp
