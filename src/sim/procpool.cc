#include "sim/procpool.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/parse.hh"
#include "exp/json.hh"
#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "telemetry/profiler.hh"

namespace padc::sim
{

namespace
{

/** Monotonic milliseconds for deadlines and retry delay gates. */
std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Dispatches per point before quarantine. */
constexpr std::uint32_t kMaxAttempts = 3;

/** Delay before a point's first retry; it doubles per retry after. */
constexpr std::uint64_t kFirstRetryDelayMs = 100;

/** How long shutdown waits for workers to exit on task-pipe EOF. */
constexpr std::uint64_t kShutdownGraceMs = 2000;

/** Close both supervisor-side pipe ends of @p worker. */
template <typename W>
void
closeWorkerFds(W *worker)
{
    if (worker->task_fd >= 0) {
        ::close(worker->task_fd);
        worker->task_fd = -1;
    }
    if (worker->result_fd >= 0) {
        ::close(worker->result_fd);
        worker->result_fd = -1;
    }
}

/**
 * The worker's alone-run caches, one per distinct (base config,
 * options) pair, warm across every task this worker process executes.
 */
AloneIpcCache &
aloneFor(std::map<std::string, std::unique_ptr<AloneIpcCache>> &caches,
         const wire::WireTask &task)
{
    exp::JsonWriter writer;
    writer.beginObject();
    SweepPoint key_point;
    key_point.config = task.alone_base;
    key_point.options = task.alone_options;
    wire::encodePoint(writer, "alone", key_point);
    writer.endObject();
    auto &slot = caches[writer.str()];
    if (slot == nullptr) {
        slot = std::make_unique<AloneIpcCache>(task.alone_base,
                                               task.alone_options);
    }
    return *slot;
}

} // namespace

ProcPoolConfig
ProcPoolConfig::fromEnv(unsigned workers)
{
    ProcPoolConfig config;
    config.workers = workers;
    const char *env = std::getenv("PADC_WORKER_TIMEOUT_MS");
    if (env == nullptr)
        return config;
    std::uint64_t parsed = 0;
    if (!parseU64(env, &parsed)) {
        std::fprintf(stderr,
                     "padc: warning: invalid PADC_WORKER_TIMEOUT_MS=\"%s\" "
                     "(want an unsigned integer); using %llu\n",
                     env,
                     static_cast<unsigned long long>(
                         config.heartbeat_timeout_ms));
        return config;
    }
    config.heartbeat_timeout_ms =
        std::clamp<std::uint64_t>(parsed, 1, 24ull * 3600 * 1000);
    return config;
}

ProcessPool::ProcessPool(std::vector<std::string> worker_argv,
                         ProcPoolConfig config)
    : argv_(std::move(worker_argv)), config_(config)
{
    // A worker dying between our poll() and write() turns the dispatch
    // into SIGPIPE; we want the EPIPE return instead (it feeds the
    // retry path).
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    sigpipe_saved_ = ::sigaction(SIGPIPE, &ignore, &old_sigpipe_) == 0;

    // Wait until every worker is ready or retired, so a sweep starts on
    // the whole pool; one ready worker is enough to run sweeps.
    workers_.resize(config_.workers);
    for (Worker &worker : workers_)
        worker.retired = !spawnWorker(&worker);
    const auto waiting = [this] {
        return std::any_of(workers_.begin(), workers_.end(),
                           [](const Worker &w) {
                               return w.alive() && !w.ready;
                           });
    };
    while (waiting())
        step(UINT64_MAX);
    usable_ = anyAlive();
}

ProcessPool::~ProcessPool()
{
    shutdownWorkers();
    if (sigpipe_saved_)
        ::sigaction(SIGPIPE, &old_sigpipe_, nullptr);
}

bool
ProcessPool::spawnWorker(Worker *worker)
{
    int task_pipe[2];
    int result_pipe[2];
    // O_CLOEXEC everywhere: a worker must not inherit its siblings'
    // pipe ends, or a sibling's death would never read as EOF. The
    // child re-duplicates its own two ends below, which clears the
    // flag on the copies that survive exec.
    if (::pipe2(task_pipe, O_CLOEXEC) != 0)
        return false;
    if (::pipe2(result_pipe, O_CLOEXEC) != 0) {
        ::close(task_pipe[0]);
        ::close(task_pipe[1]);
        return false;
    }

    std::vector<char *> argv;
    argv.reserve(argv_.size() + 1);
    for (const std::string &arg : argv_)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(task_pipe[0]);
        ::close(task_pipe[1]);
        ::close(result_pipe[0]);
        ::close(result_pipe[1]);
        return false;
    }
    if (pid == 0) {
        // Child: the parent may be running runner threads holding
        // arbitrary locks, so only async-signal-safe calls are legal
        // here until execv. Stage both ends above the target fds first
        // so one dup2 cannot clobber the other's source.
        const int task_in =
            ::fcntl(task_pipe[0], F_DUPFD, kWorkerResultFd + 1);
        const int result_out =
            ::fcntl(result_pipe[1], F_DUPFD, kWorkerResultFd + 1);
        if (task_in < 0 || result_out < 0 ||
            ::dup2(task_in, kWorkerTaskFd) < 0 ||
            ::dup2(result_out, kWorkerResultFd) < 0)
            ::_exit(127);
        ::close(task_in);
        ::close(result_out);
        ::execv(argv[0], argv.data());
        ::_exit(127); // exec failed; reads as "exited with status 127"
    }

    ::close(task_pipe[0]);
    ::close(result_pipe[1]);
    worker->pid = pid;
    worker->task_fd = task_pipe[1];
    worker->result_fd = result_pipe[0];
    worker->frames = wire::FrameBuffer();
    worker->ready = false;
    worker->timed_out = false;
    worker->task = -1;
    worker->deadline_ms = nowMs() + config_.heartbeat_timeout_ms;
    slotProfile(*worker).pid = pid;
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->workerSpawned(slotOf(*worker), pid);
    return true;
}

std::size_t
ProcessPool::slotOf(const Worker &worker) const
{
    return static_cast<std::size_t>(&worker - workers_.data());
}

ProcessPool::WorkerSlotProfile &
ProcessPool::slotProfile(const Worker &worker)
{
    const std::size_t slot = slotOf(worker);
    if (profile_.workers.size() <= slot)
        profile_.workers.resize(slot + 1);
    return profile_.workers[slot];
}

ProcessPool::PoolProfile
ProcessPool::drainProfile()
{
    PoolProfile drained = std::move(profile_);
    profile_ = PoolProfile{};
    // Keep the live pids visible in the fresh window so a sweep that
    // replays everything still reports its idle workers.
    profile_.workers.resize(workers_.size());
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        profile_.workers[slot].pid =
            workers_[slot].alive() ? workers_[slot].pid : -1;
    }
    return drained;
}

std::string
ProcessPool::reapWorker(Worker *worker)
{
    int status = 0;
    pid_t rc;
    do {
        rc = ::waitpid(worker->pid, &status, 0);
    } while (rc < 0 && errno == EINTR);

    const pid_t pid = worker->pid;
    std::string fate;
    if (worker->timed_out) {
        fate = "timed out after " +
               std::to_string(config_.heartbeat_timeout_ms) +
               "ms (killed)";
    } else if (rc == worker->pid && WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        fate = "killed by signal " + std::to_string(sig) + " (" +
               (name != nullptr ? name : "unknown") + ")";
    } else if (rc == worker->pid && WIFEXITED(status)) {
        fate = "exited with status " +
               std::to_string(WEXITSTATUS(status));
    } else {
        fate = "disappeared";
    }
    closeWorkerFds(worker);
    // Death before the hello is the exec-failure signature: respawning
    // that worker would loop.
    worker->retired = worker->retired || !worker->ready;
    worker->pid = -1;
    worker->ready = false;
    worker->timed_out = false;
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->workerExited(slotOf(*worker), pid, fate);
    return fate;
}

std::string
ProcessPool::killWorker(Worker *worker)
{
    ::kill(worker->pid, SIGKILL);
    return reapWorker(worker);
}

bool
ProcessPool::anyAlive() const
{
    return std::any_of(workers_.begin(), workers_.end(),
                       [](const Worker &worker) { return worker.alive(); });
}

void
ProcessPool::shutdownWorkers()
{
    // Closing the task pipe is the shutdown signal; workers exit their
    // readFrame loop on the EOF, and step() reaps them.
    for (Worker &worker : workers_) {
        if (worker.task_fd >= 0) {
            ::close(worker.task_fd);
            worker.task_fd = -1;
        }
    }
    const std::uint64_t deadline = nowMs() + kShutdownGraceMs;
    while (anyAlive() && nowMs() < deadline)
        step(deadline);
    // Anything still alive is wedged; don't wait on it politely.
    for (Worker &worker : workers_) {
        if (worker.alive())
            killWorker(&worker);
    }
}

void
ProcessPool::step(std::uint64_t wake_ms, const OnResult &on_result,
                  const OnLost &on_lost)
{
    std::vector<struct pollfd> fds;
    std::vector<Worker *> order;
    for (Worker &worker : workers_) {
        if (!worker.alive())
            continue;
        fds.push_back({worker.result_fd, POLLIN, 0});
        order.push_back(&worker);
        if (worker.deadline_ms != 0)
            wake_ms = std::min(wake_ms, worker.deadline_ms);
    }
    const std::uint64_t now = nowMs();
    const int timeout =
        wake_ms > now
            ? static_cast<int>(std::min<std::uint64_t>(wake_ms - now, 1000))
            : 0;
    // An error (EINTR included) leaves every revents 0: nothing arrived.
    ::poll(fds.data(), fds.size(), timeout);

    // A dead worker hands back the point it held.
    const auto lose = [&](Worker &worker, const std::string &fate) {
        if (worker.task < 0)
            return;
        const auto i = static_cast<std::size_t>(worker.task);
        worker.task = -1;
        if (on_lost)
            on_lost(i, fate);
    };
    // A frame the protocol does not allow here: the worker cannot be
    // trusted any more, so kill it.
    const auto reject = [&](Worker &worker, const std::string &why) {
        const std::string fate = killWorker(&worker);
        lose(worker, why + " (" + fate + ")");
    };
    const auto handle = [&](Worker &worker, const std::string &payload) {
        wire::WireResult result;
        std::string error;
        if (!wire::decodeResult(payload, &result, &error)) {
            reject(worker, "sent a malformed result: " + error);
        } else if (result.hello && !worker.ready) {
            worker.ready = true;
            worker.deadline_ms = 0;
        } else if (result.hello || worker.task < 0 ||
                   result.index != static_cast<std::uint64_t>(worker.task)) {
            reject(worker, "sent an unexpected frame");
        } else {
            const auto i = static_cast<std::size_t>(worker.task);
            worker.task = -1;
            worker.deadline_ms = 0;
            if (on_result)
                on_result(i, worker, result);
        }
    };

    for (std::size_t k = 0; k < fds.size(); ++k) {
        Worker &worker = *order[k];
        if (!worker.alive()) // killed by an earlier event this step
            continue;
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        char buf[65536];
        const ssize_t m = ::read(worker.result_fd, buf, sizeof(buf));
        if (m > 0) {
            worker.frames.feed(buf, static_cast<std::size_t>(m));
            std::string payload;
            while (worker.alive() && worker.frames.next(&payload))
                handle(worker, payload);
            if (worker.alive() && worker.frames.corrupt())
                reject(worker, "sent a corrupt frame");
        } else if (m == 0 || errno != EINTR) {
            lose(worker, reapWorker(&worker));
        }
    }

    // A worker that missed its handshake or heartbeat deadline is
    // killed, with the timeout as its fate.
    const std::uint64_t after = nowMs();
    for (Worker &worker : workers_) {
        if (worker.alive() && worker.deadline_ms != 0 &&
            worker.deadline_ms <= after) {
            worker.timed_out = true;
            ++profile_.timeout_kills;
            ++slotProfile(worker).kills;
            if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
                monitor->workerTimedOut(slotOf(worker), worker.pid,
                                        worker.task);
            }
            lose(worker, killWorker(&worker));
        }
    }
}

template <typename T>
void
ProcessPool::execute(const std::vector<SweepPoint> &points,
                     const std::vector<std::size_t> &todo,
                     const FinishPoint<T> &finish,
                     const AloneIpcCache *alone)
{
    const std::size_t n = points.size();
    profile_.replayed += n - todo.size();
    if (todo.empty())
        return;

    enum class PState : std::uint8_t { Pending, InFlight, Done };
    struct PointState
    {
        PState state = PState::Done; ///< points not in todo stay Done
        std::uint32_t attempts = 0;  ///< dispatches so far
        std::uint64_t ready_ms = 0;  ///< retry delay gate
        std::string last_error;      ///< fate of the last failed attempt
    };
    std::vector<PointState> state(n);
    for (const std::size_t i : todo)
        state[i].state = PState::Pending;
    std::size_t done = n - todo.size();

    // A point that ends without a worker's result: the sweep body
    // fails it.
    auto finishUnrun = [&](std::size_t i, obs::PointEnding ending,
                           const std::string &detail = "") {
        FinishedPoint<T> unrun;
        unrun.ending = ending;
        unrun.result.outcome.detail = detail;
        unrun.result.outcome.attempts = state[i].attempts;
        unrun.result.outcome.last_error = state[i].last_error;
        state[i].state = PState::Done;
        ++done;
        finish(i, std::move(unrun));
    };

    // Its worker died (crash, exit, deadline kill, rejected frame): the
    // point waits out the retry delay, or quarantines once its attempts
    // are spent. Quarantined points are NOT journaled, so a resume
    // retries them.
    const OnLost lost = [&](std::size_t i, const std::string &fate) {
        state[i].last_error = fate;
        if (state[i].attempts >= kMaxAttempts) {
            ++profile_.quarantined;
            finishUnrun(i, obs::PointEnding::Quarantined,
                        "quarantined after " +
                            std::to_string(state[i].attempts) +
                            " attempts; last worker " + fate);
            return;
        }
        state[i].state = PState::Pending;
        state[i].ready_ms =
            nowMs() + (kFirstRetryDelayMs << (state[i].attempts - 1));
        ++profile_.retries;
        if (obs::FleetMonitor *monitor = obs::activeMonitor())
            monitor->pointRetried(i, state[i].attempts, fate);
    };

    // A result: the profile window takes the round-trip latency, the
    // point's cycles and the worker's exec seconds, and the
    // supervisor's profiler merges the worker's (per task; see wire.hh).
    const OnResult ran = [&](std::size_t i, Worker &worker,
                             wire::WireResult &result) {
        FinishedPoint<T> point;
        std::uint64_t cycles = 0;
        if constexpr (std::is_same_v<T, RunMetrics>) {
            point.result = std::move(result.run);
            cycles = point.result.value.cycles();
        } else {
            point.result = std::move(result.eval);
            cycles = point.result.value.metrics.cycles();
        }
        profile_.task_ms.sample(nowMs() - worker.task_started_ms);
        ++profile_.tasks;
        profile_.sim_cycles += cycles;
        profile_.exec_seconds += result.worker.exec_seconds;
        WorkerSlotProfile &slot = slotProfile(worker);
        ++slot.tasks;
        slot.pid = worker.pid;
        slot.sim_cycles += cycles;
        slot.exec_seconds += result.worker.exec_seconds;
        telemetry::WallProfiler::instance().merge(result.worker.profile);

        point.result.outcome.attempts = state[i].attempts;
        point.result.outcome.last_error = state[i].last_error;
        point.slot = static_cast<std::int64_t>(slotOf(worker));
        point.pid = worker.pid;
        state[i].state = PState::Done;
        ++done;
        finish(i, std::move(point));
    };

    while (done < n) {
        // Graceful stop: kill busy workers immediately (one of them may
        // be wedged -- never wait), end the unfinished points as
        // interrupted, and leave the idle workers for shutdownWorkers().
        if (interruptRequested()) {
            if (obs::FleetMonitor *monitor = obs::activeMonitor())
                monitor->interruptDrain();
            for (Worker &worker : workers_) {
                if (worker.alive() && worker.task >= 0) {
                    killWorker(&worker);
                    const auto i = static_cast<std::size_t>(worker.task);
                    worker.task = -1;
                    finishUnrun(i, obs::PointEnding::Interrupted);
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (state[i].state == PState::Pending)
                    finishUnrun(i, obs::PointEnding::Interrupted);
            }
            break;
        }

        // Respawn fallen workers while work remains (retired ones stay
        // down).
        for (Worker &worker : workers_) {
            if (worker.alive() || worker.retired)
                continue;
            if (spawnWorker(&worker)) {
                ++profile_.respawns;
            } else {
                worker.retired = true;
            }
        }

        if (!anyAlive()) {
            for (std::size_t i = 0; i < n; ++i) {
                if (state[i].state != PState::Done) {
                    finishUnrun(i, obs::PointEnding::Stranded,
                                "no live workers left to run the point" +
                                    (state[i].last_error.empty()
                                         ? std::string()
                                         : "; last worker " +
                                               state[i].last_error));
                }
            }
            break;
        }

        // Dispatch ready points (index order) to idle ready workers.
        const std::uint64_t now = nowMs();
        for (Worker &worker : workers_) {
            if (!worker.alive() || !worker.ready || worker.task >= 0)
                continue;
            std::int64_t pick = -1;
            for (std::size_t i = 0; i < n; ++i) {
                if (state[i].state == PState::Pending &&
                    state[i].ready_ms <= now) {
                    pick = static_cast<std::int64_t>(i);
                    break;
                }
            }
            if (pick < 0)
                break;
            const auto i = static_cast<std::size_t>(pick);
            wire::WireTask task;
            task.kind = alone != nullptr ? wire::WireTask::Kind::Eval
                                         : wire::WireTask::Kind::Run;
            task.index = i;
            task.attempt = state[i].attempts;
            task.point = points[i];
            if (alone != nullptr) {
                task.alone_base = alone->base();
                task.alone_options = alone->options();
            }
            if (!wire::writeFrame(worker.task_fd,
                                  wire::encodeTask(task))) {
                // EPIPE: it died idle; reap here, respawn next round.
                killWorker(&worker);
                continue;
            }
            worker.task = pick;
            worker.deadline_ms = now + config_.heartbeat_timeout_ms;
            worker.task_started_ms = now;
            state[i].state = PState::InFlight;
            ++state[i].attempts;
            ++slotProfile(worker).dispatches;
            if (obs::FleetMonitor *monitor = obs::activeMonitor())
                monitor->pointDispatched(i, slotOf(worker), worker.pid);
        }

        // Wake when the earliest retry delay passes, unless something
        // comes first.
        std::uint64_t wake = UINT64_MAX;
        for (std::size_t i = 0; i < n; ++i) {
            if (state[i].state == PState::Pending && state[i].ready_ms > now)
                wake = std::min(wake, state[i].ready_ms);
        }
        step(wake, ran, lost);
    }
}

std::vector<Result<RunMetrics>>
ProcessPool::runSweep(const std::vector<SweepPoint> &points,
                      SweepJournal *journal)
{
    return runPoints<RunMetrics>(
        points, journal, [&](const auto &todo, const auto &finish) {
            execute<RunMetrics>(points, todo, finish);
        });
}

std::vector<Result<MixEvaluation>>
ProcessPool::evaluateSweep(const std::vector<SweepPoint> &points,
                           AloneIpcCache &alone, SweepJournal *journal)
{
    return runPoints<MixEvaluation>(
        points, journal, [&](const auto &todo, const auto &finish) {
            execute<MixEvaluation>(points, todo, finish, &alone);
        });
}

int
ProcessPool::workerMain(int task_fd, int result_fd)
{
    // A terminal Ctrl-C delivers SIGINT to the whole foreground process
    // group; shutdown is the supervisor's decision (task-pipe EOF or
    // SIGKILL), so workers ignore the terminal's copy.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);
    std::signal(SIGPIPE, SIG_IGN);

    const wire::FaultSpec fault = wire::envFaultSpec();
    if (!wire::writeFrame(result_fd, wire::encodeHello()))
        return 1;

    std::map<std::string, std::unique_ptr<AloneIpcCache>> alone_caches;
    telemetry::WallProfiler &profiler = telemetry::WallProfiler::instance();
    std::string payload;
    while (wire::readFrame(task_fd, &payload)) {
        wire::WireTask task;
        std::string error;
        if (!wire::decodeTask(payload, &task, &error)) {
            std::fprintf(stderr, "padc worker: malformed task frame: %s\n",
                         error.c_str());
            return 1;
        }

        if (wire::faultFires(fault, task.index, task.attempt)) {
            switch (fault.mode) {
              case wire::FaultSpec::Mode::Crash:
              case wire::FaultSpec::Mode::Poison:
                std::raise(SIGKILL);
                break;
              case wire::FaultSpec::Mode::Exit:
                ::_exit(fault.exit_code);
              case wire::FaultSpec::Mode::Hang: {
                // Wedge until the supervisor's heartbeat kills us; watch
                // the task pipe so an orphan (supervisor died, pipe
                // closed) exits instead of leaking forever.
                struct pollfd probe = {task_fd, POLLIN, 0};
                for (;;) {
                    if (::poll(&probe, 1, -1) <= 0)
                        continue;
                    if ((probe.revents & (POLLHUP | POLLERR)) != 0)
                        ::_exit(0);
                    if ((probe.revents & POLLIN) != 0) {
                        char sink[4096];
                        if (::read(task_fd, sink, sizeof(sink)) == 0)
                            ::_exit(0);
                    }
                }
              }
              case wire::FaultSpec::Mode::None:
                break;
            }
        }

        wire::WireResult result;
        result.kind = task.kind;
        result.index = task.index;
        profiler.reset();
        const std::uint64_t started_ms = nowMs();
        if (task.kind == wire::WireTask::Kind::Run) {
            result.run = executePoint<RunMetrics>([&](RunStatus *status) {
                return runMix(task.point.config, task.point.mix,
                              task.point.options, status);
            });
        } else {
            AloneIpcCache &alone = aloneFor(alone_caches, task);
            result.eval =
                executePoint<MixEvaluation>([&](RunStatus *status) {
                    return evaluateMix(task.point.config, task.point.mix,
                                       task.point.options, alone, status);
                });
        }
        // Self-report: this task's execution time and profiler counts,
        // so the supervisor's aggregation is a plain sum.
        result.worker.exec_seconds =
            static_cast<double>(nowMs() - started_ms) / 1000.0;
        result.worker.profile = profiler.snapshot();
        if (!wire::writeFrame(result_fd, wire::encodeResult(result)))
            return 1; // supervisor is gone
    }
    return 0; // EOF: clean shutdown
}

} // namespace padc::sim
