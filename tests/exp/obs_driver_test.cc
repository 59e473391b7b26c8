/**
 * @file
 * Integration tests of `padc run --progress`, driving the real driver
 * binary (PADC_DRIVER_BIN) as subprocesses with stdout and stderr
 * captured SEPARATELY — the whole point of the --progress contract is
 * that the machine-readable stdout streams stay byte-clean while the
 * human-facing progress line rides on stderr, and that --out holds
 * nothing but the BENCH files.
 *
 * Covers the acceptance scenarios: a JSON run keeps stdout one
 * document, and an interrupted sweep reports every point once, on the
 * progress line and in its BENCH file.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

TEST(ObsDriver, ProgressKeepsJsonStdoutByteClean)
{
    // S1: with --format json, --progress must not perturb stdout by a
    // single byte — the whole stream is exactly one parseable JSON
    // document, and every progress marker lands on stderr.
    const auto dir = freshDir("stdout_clean");
    const auto out_dir = dir / "out";
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--format", "json",
                         "--progress", "--out", out_dir.string()},
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

    // The progress stream went to stderr instead, ending on the whole
    // sweep.
    EXPECT_EQ(lastLine(err).substr(0, kSmokeGridDone.size()),
              kSmokeGridDone)
        << err;

    // And --out holds the BENCH file alone.
    EXPECT_EQ(filesIn(out_dir),
              std::vector<std::string>{"BENCH_smoke_grid.json"});
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, WithoutProgressNoSidecarFilesAppear)
{
    // Default runs print no progress line and leave only the BENCH
    // file in --out.
    const auto dir = freshDir("no_progress");
    const auto out_dir = dir / "out";
    ASSERT_EQ(runDriver({"run", "smoke_grid", "--out", out_dir.string()},
                        {}, (dir / "stdout.log").string(),
                        (dir / "stderr.log").string()),
              0);
    EXPECT_EQ(slurp(dir / "stderr.log").find("[padc]"), std::string::npos);
    EXPECT_EQ(filesIn(out_dir),
              std::vector<std::string>{"BENCH_smoke_grid.json"});
    std::filesystem::remove_all(dir);
}

TEST(ObsDriver, PooledInterruptReportsEveryPoint)
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
