/**
 * @file
 * Shared helpers of the driver tests: a fresh temp directory, a whole
 * file read, and two ways to run `padc`. runInProcess calls driverMain
 * and captures its stdout and stderr. The subprocess helpers
 * (spawnDriver, waitDriver, runDriver), compiled where PADC_DRIVER_BIN
 * names the real binary, run it as a child: signals, kills and streams
 * written to files behave there as they do in production.
 */

#ifndef PADC_TESTS_EXP_DRIVER_HARNESS_HH
#define PADC_TESTS_EXP_DRIVER_HARNESS_HH

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

#include "exp/driver.hh"

extern char **environ;

namespace padc::exp
{

/**
 * An empty directory `padc_test_<name>.<pid>` under the system temp
 * directory. The pid keeps two processes running one suite (two build
 * trees, say) apart.
 */
inline std::filesystem::path
freshDir(const std::string &name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("padc_test_" + name + "." +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** The contents of @p path; empty when it cannot be read. */
inline std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** driverMain on `padc <args>`; its stdout and stderr into @p out, @p err. */
inline int
runInProcess(const std::vector<std::string> &args, std::string *out,
             std::string *err)
{
    std::vector<const char *> argv = {"padc"};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = driverMain(static_cast<int>(argv.size()), argv.data());
    *out = testing::internal::GetCapturedStdout();
    *err = testing::internal::GetCapturedStderr();
    return rc;
}

#ifdef PADC_DRIVER_BIN

/**
 * Spawn PADC_DRIVER_BIN on @p args with @p env_extra added to the
 * environment. stdout goes to the file @p out_log, and stderr to
 * @p err_log, or into @p out_log too when @p err_log is empty.
 * Returns the child pid (or -1).
 */
inline pid_t
spawnDriver(const std::vector<std::string> &args,
            const std::vector<std::string> &env_extra,
            const std::string &out_log, const std::string &err_log = {})
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
    if (err_log.empty()) {
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
    } else {
        posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                         err_log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
    }
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, PADC_DRIVER_BIN, &actions,
                                 nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    return rc == 0 ? pid : -1;
}

/** Wait for @p pid; exit status, or 128+signal when killed. */
inline int
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

/** spawnDriver, then waitDriver. */
inline int
runDriver(const std::vector<std::string> &args,
          const std::vector<std::string> &env_extra,
          const std::string &out_log, const std::string &err_log = {})
{
    const pid_t pid = spawnDriver(args, env_extra, out_log, err_log);
    EXPECT_GT(pid, 0);
    return pid > 0 ? waitDriver(pid) : -1;
}

#endif // PADC_DRIVER_BIN

} // namespace padc::exp

#endif // PADC_TESTS_EXP_DRIVER_HARNESS_HH
