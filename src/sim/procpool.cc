#include "sim/procpool.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

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

#include "exp/json.hh"
#include "obs/monitor.hh"
#include "sim/interrupt.hh"
#include "sim/journal.hh"

namespace padc::sim
{

namespace
{

/** Monotonic milliseconds for deadlines and backoff gates. */
std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Strictly parsed unsigned environment override, clamped to
 * [min, max]; malformed values warn and keep the default rather than
 * guess.
 */
std::uint64_t
envU64(const char *name, std::uint64_t fallback, std::uint64_t min_value,
       std::uint64_t max_value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (*env == '\0' || *env == '-' || *env == '+' || end == env ||
        *end != '\0' || errno != 0) {
        std::fprintf(stderr,
                     "padc: warning: invalid %s=\"%s\" (want an "
                     "unsigned integer); using %llu\n",
                     name, env,
                     static_cast<unsigned long long>(fallback));
        return fallback;
    }
    if (parsed < min_value)
        return min_value;
    if (parsed > max_value)
        return max_value;
    return parsed;
}

/** Simulated cycles of one run: the slowest core defines the point. */
std::uint64_t
runCyclesOf(const RunMetrics &metrics)
{
    std::uint64_t cycles = 0;
    for (const CoreMetrics &core : metrics.cores)
        cycles = std::max<std::uint64_t>(cycles, core.cycles);
    return cycles;
}

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
    config.max_attempts = static_cast<std::uint32_t>(
        envU64("PADC_WORKER_ATTEMPTS", config.max_attempts, 1, 100));
    config.heartbeat_timeout_ms =
        envU64("PADC_WORKER_TIMEOUT_MS", config.heartbeat_timeout_ms, 1,
               24ull * 3600 * 1000);
    config.backoff_initial_ms =
        envU64("PADC_RETRY_BACKOFF_MS", config.backoff_initial_ms, 0,
               60000);
    if (config.backoff_max_ms < config.backoff_initial_ms)
        config.backoff_max_ms = config.backoff_initial_ms;
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
ProcessPool::reapWorker(Worker *worker, int wait_options)
{
    int status = 0;
    pid_t rc;
    do {
        rc = ::waitpid(worker->pid, &status, wait_options);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0)
        return {}; // WNOHANG and still running

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
    worker->pid = -1;
    worker->ready = false;
    worker->timed_out = false;
    if (obs::FleetMonitor *monitor = obs::activeMonitor())
        monitor->workerExited(slotOf(*worker), pid, fate);
    return fate;
}

void
ProcessPool::shutdownWorkers()
{
    // Closing the task pipe is the shutdown signal; workers exit their
    // readFrame loop on the EOF.
    for (Worker &worker : workers_) {
        if (worker.alive() && worker.task_fd >= 0) {
            ::close(worker.task_fd);
            worker.task_fd = -1;
        }
    }
    const std::uint64_t deadline = nowMs() + 2000;
    bool remaining = true;
    while (remaining && nowMs() < deadline) {
        remaining = false;
        for (Worker &worker : workers_) {
            if (worker.alive() && reapWorker(&worker, WNOHANG).empty())
                remaining = true;
        }
        if (remaining)
            ::usleep(10 * 1000);
    }
    // Anything still alive is wedged; don't wait on it politely.
    for (Worker &worker : workers_) {
        if (worker.alive()) {
            ::kill(worker.pid, SIGKILL);
            reapWorker(&worker);
        }
    }
}

bool
ProcessPool::available()
{
    if (spawned_)
        return usable_;
    spawned_ = true;
    if (config_.workers == 0 || argv_.empty())
        return false;

    workers_.resize(config_.workers);
    for (Worker &worker : workers_) {
        if (!spawnWorker(&worker))
            worker.retired = true;
    }

    // Wait (bounded) until every worker is ready or dead; one ready
    // worker is enough to run sweeps.
    const std::uint64_t deadline = nowMs() + 10000;
    for (;;) {
        std::vector<struct pollfd> fds;
        std::vector<Worker *> order;
        for (Worker &worker : workers_) {
            if (worker.alive() && !worker.ready) {
                fds.push_back({worker.result_fd, POLLIN, 0});
                order.push_back(&worker);
            }
        }
        if (fds.empty())
            break;
        const std::uint64_t now = nowMs();
        if (now >= deadline) {
            for (Worker *worker : order) {
                ::kill(worker->pid, SIGKILL);
                reapWorker(worker);
                worker->retired = true;
            }
            break;
        }
        const int timeout =
            static_cast<int>(std::min<std::uint64_t>(deadline - now, 100));
        const int rc = ::poll(fds.data(), fds.size(), timeout);
        if (rc < 0 && errno != EINTR)
            break;
        for (std::size_t k = 0; k < fds.size(); ++k) {
            Worker &worker = *order[k];
            if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            char buf[4096];
            const ssize_t m = ::read(worker.result_fd, buf, sizeof(buf));
            if (m > 0) {
                worker.frames.feed(buf, static_cast<std::size_t>(m));
                std::string payload;
                while (worker.frames.next(&payload)) {
                    wire::WireResult result;
                    std::string error;
                    if (wire::decodeResult(payload, &result, &error) &&
                        result.hello) {
                        worker.ready = true;
                        worker.deadline_ms = 0;
                    }
                }
            } else if (m == 0 || errno != EINTR) {
                reapWorker(&worker);
                worker.retired = true; // never came up; don't respawn
            }
        }
    }

    usable_ = false;
    for (const Worker &worker : workers_)
        usable_ = usable_ || worker.ready;
    if (!usable_)
        shutdownWorkers();
    return usable_;
}

template <typename T>
std::vector<Result<T>>
ProcessPool::execute(const std::vector<SweepPoint> &points,
                     wire::WireTask::Kind kind,
                     const SystemConfig &alone_base,
                     const RunOptions &alone_options, SweepJournal *journal)
{
    const std::size_t n = points.size();
    std::vector<Result<T>> results(n);
    if (n == 0)
        return results;
    available(); // spawns the workers on first use

    enum class PState : std::uint8_t { Pending, InFlight, Done };
    struct PointState
    {
        PState state = PState::Pending;
        std::uint32_t attempts = 0;  ///< dispatches so far
        std::uint64_t ready_ms = 0;  ///< backoff gate
        std::string last_error;      ///< fate of the last failed attempt
    };
    std::vector<PointState> state(n);
    std::vector<std::uint64_t> keys(n, 0);
    std::size_t done = 0;

    // Exactly-once resume: replay journaled points up front. Nothing
    // below journals anything except a fully received worker result.
    for (std::size_t i = 0; i < n; ++i) {
        if (journal == nullptr)
            continue;
        keys[i] = sweepPointKey(points[i]);
        if (journal->lookup(keys[i], &results[i])) {
            results[i].outcome.attempts = 0; // never ran in this process
            state[i].state = PState::Done;
            ++done;
            ++profile_.replayed;
            if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
                monitor->pointFinished(
                    i, toString(results[i].outcome.status), 0,
                    results[i].outcome.detail);
            }
        }
    }

    // Every final outcome that is not a worker's result ends here and
    // reaches the monitor exactly once, as in-thread: a quarantine (with
    // the last worker's fate) through its own hook, the rest through
    // pointFinished.
    auto finishFailed = [&](std::size_t i, const std::string &detail,
                            const std::string &quarantine_fate = "") {
        results[i].value = T{};
        results[i].outcome.status = PointStatus::Failed;
        results[i].outcome.detail = detail;
        results[i].outcome.attempts = state[i].attempts;
        results[i].outcome.last_error = state[i].last_error;
        state[i].state = PState::Done;
        ++done;
        obs::FleetMonitor *monitor = obs::activeMonitor();
        if (monitor != nullptr && !quarantine_fate.empty())
            monitor->pointQuarantined(i, quarantine_fate);
        else if (monitor != nullptr)
            monitor->pointFinished(i, toString(PointStatus::Failed),
                                   state[i].attempts, detail);
    };

    // A worker died (crash, exit, heartbeat kill, malformed frame). Its
    // in-flight point backs off and retries, or quarantines once its
    // attempt budget is spent. Quarantined points are NOT journaled, so
    // a resume retries them.
    auto onDeath = [&](Worker &worker, const std::string &fate) {
        if (worker.task < 0)
            return;
        const auto i = static_cast<std::size_t>(worker.task);
        worker.task = -1;
        state[i].last_error = fate;
        if (state[i].attempts >= config_.max_attempts) {
            ++profile_.quarantined;
            finishFailed(i,
                         "quarantined after " +
                             std::to_string(state[i].attempts) +
                             " attempts; last worker " + fate,
                         fate);
            return;
        }
        std::uint64_t delay = config_.backoff_initial_ms;
        for (std::uint32_t k = 1;
             k < state[i].attempts && delay < config_.backoff_max_ms; ++k)
            delay *= 2;
        delay = std::min(delay, config_.backoff_max_ms);
        state[i].state = PState::Pending;
        state[i].ready_ms = nowMs() + delay;
        ++profile_.retries;
        if (obs::FleetMonitor *monitor = obs::activeMonitor())
            monitor->pointRetried(i, state[i].attempts, fate);
    };

    // Protocol violations are handled like deaths: the worker cannot be
    // trusted any more, so kill it and let the retry machinery take over.
    auto killForProtocol = [&](Worker &worker, const std::string &why) {
        ::kill(worker.pid, SIGKILL);
        const std::string fate = reapWorker(&worker);
        onDeath(worker, why + " (" + fate + ")");
    };

    auto handleFrame = [&](Worker &worker, const std::string &payload) {
        wire::WireResult result;
        std::string error;
        if (!wire::decodeResult(payload, &result, &error)) {
            killForProtocol(worker, "sent a malformed result: " + error);
            return;
        }
        if (result.hello) { // respawned worker's handshake
            worker.ready = true;
            worker.deadline_ms = 0;
            return;
        }
        if (worker.task < 0 ||
            result.index != static_cast<std::uint64_t>(worker.task)) {
            killForProtocol(worker, "sent a result for the wrong point");
            return;
        }
        const auto i = static_cast<std::size_t>(worker.task);
        worker.task = -1;
        worker.deadline_ms = 0;

        // Profile window: round-trip latency, per-slot credit, and the
        // worker's self-report (per-task deltas; see wire.hh).
        const std::uint64_t latency_ms =
            worker.task_started_ms > 0 ? nowMs() - worker.task_started_ms
                                       : 0;
        profile_.task_ms.sample(latency_ms);
        ++profile_.tasks;
        WorkerSlotProfile &slot = slotProfile(worker);
        ++slot.tasks;
        slot.pid = worker.pid;
        slot.sim_cycles += result.worker.sim_cycles;
        slot.exec_seconds += result.worker.exec_seconds;
        profile_.sim_cycles += result.worker.sim_cycles;
        profile_.exec_seconds += result.worker.exec_seconds;

        Result<T> merged;
        if constexpr (std::is_same_v<T, RunMetrics>)
            merged = std::move(result.run);
        else
            merged = std::move(result.eval);
        merged.outcome.attempts = state[i].attempts;
        merged.outcome.last_error = state[i].last_error;
        if (journal != nullptr)
            journal->record(keys[i], merged);
        if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
            monitor->pointFinished(
                i, toString(merged.outcome.status),
                state[i].attempts, merged.outcome.detail,
                static_cast<std::int64_t>(slotOf(worker)), worker.pid);
        }
        results[i] = std::move(merged);
        state[i].state = PState::Done;
        ++done;
        notePointCompleted();
    };

    while (done < n) {
        // Graceful stop: kill busy workers immediately (one of them may
        // be wedged -- never wait), fail the unfinished points as
        // "interrupted" without journaling them, and leave the idle
        // workers for shutdownWorkers().
        if (interruptRequested()) {
            if (obs::FleetMonitor *monitor = obs::activeMonitor())
                monitor->interruptDrain();
            for (Worker &worker : workers_) {
                if (worker.alive() && worker.task >= 0) {
                    ::kill(worker.pid, SIGKILL);
                    reapWorker(&worker);
                    const auto i = static_cast<std::size_t>(worker.task);
                    worker.task = -1;
                    finishFailed(i, kInterruptedDetail);
                }
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (state[i].state == PState::Pending)
                    finishFailed(i, kInterruptedDetail);
            }
            break;
        }

        // Respawn fallen workers while work remains. A worker that dies
        // before its handshake is retired instead (that is the
        // exec-failure signature, and respawning it would loop).
        for (Worker &worker : workers_) {
            if (worker.alive() || worker.retired)
                continue;
            if (spawnWorker(&worker)) {
                ++profile_.respawns;
            } else {
                worker.retired = true;
            }
        }

        bool any_alive = false;
        for (const Worker &worker : workers_)
            any_alive = any_alive || worker.alive();
        if (!any_alive) {
            for (std::size_t i = 0; i < n; ++i) {
                if (state[i].state != PState::Done) {
                    finishFailed(i,
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
        std::uint64_t now = nowMs();
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
            task.kind = kind;
            task.index = i;
            task.attempt = state[i].attempts;
            task.point = points[i];
            if (kind == wire::WireTask::Kind::Eval) {
                task.alone_base = alone_base;
                task.alone_options = alone_options;
            }
            if (!wire::writeFrame(worker.task_fd,
                                  wire::encodeTask(task))) {
                // EPIPE: it died idle; reap here, respawn next round.
                ::kill(worker.pid, SIGKILL);
                reapWorker(&worker);
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

        // Wait for results, deaths, handshake/heartbeat deadlines, or
        // backoff expiry -- whichever comes first.
        std::vector<struct pollfd> fds;
        std::vector<Worker *> order;
        for (Worker &worker : workers_) {
            if (worker.alive()) {
                fds.push_back({worker.result_fd, POLLIN, 0});
                order.push_back(&worker);
            }
        }
        now = nowMs();
        std::uint64_t wake = now + 1000;
        for (const Worker &worker : workers_) {
            if (worker.alive() && worker.deadline_ms != 0 &&
                (worker.task >= 0 || !worker.ready))
                wake = std::min(wake, worker.deadline_ms);
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (state[i].state == PState::Pending &&
                state[i].ready_ms > now)
                wake = std::min(wake, state[i].ready_ms);
        }
        const int timeout =
            wake > now ? static_cast<int>(std::min<std::uint64_t>(
                             wake - now, 1000))
                       : 0;
        const int rc = ::poll(fds.data(), fds.size(), timeout);
        if (rc < 0 && errno != EINTR)
            break;

        for (std::size_t k = 0; k < fds.size(); ++k) {
            Worker &worker = *order[k];
            if (!worker.alive()) // killed by an earlier event this round
                continue;
            if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            char buf[65536];
            const ssize_t m = ::read(worker.result_fd, buf, sizeof(buf));
            if (m > 0) {
                worker.frames.feed(buf, static_cast<std::size_t>(m));
                std::string payload;
                while (worker.alive() && worker.frames.next(&payload))
                    handleFrame(worker, payload);
                if (worker.alive() && worker.frames.corrupt())
                    killForProtocol(worker, "sent a corrupt frame");
            } else if (m == 0 || errno != EINTR) {
                const std::string fate = reapWorker(&worker);
                if (!worker.ready && worker.task < 0)
                    worker.retired = true; // died during handshake
                onDeath(worker, fate);
            }
        }

        // Heartbeat: a worker whose task (or handshake) blew its
        // deadline gets SIGKILLed; the EOF surfaces on the next round
        // and feeds the death path above with a timeout fate.
        const std::uint64_t after = nowMs();
        for (Worker &worker : workers_) {
            if (worker.alive() && worker.deadline_ms != 0 &&
                (worker.task >= 0 || !worker.ready) &&
                worker.deadline_ms <= after && !worker.timed_out) {
                worker.timed_out = true;
                ++profile_.timeout_kills;
                ++slotProfile(worker).kills;
                if (obs::FleetMonitor *monitor = obs::activeMonitor()) {
                    monitor->workerTimedOut(slotOf(worker), worker.pid,
                                            worker.task);
                }
                ::kill(worker.pid, SIGKILL);
            }
        }
    }

    return results;
}

std::vector<Result<RunMetrics>>
ProcessPool::runSweep(const std::vector<SweepPoint> &points,
                      SweepJournal *journal)
{
    return execute<RunMetrics>(points, wire::WireTask::Kind::Run,
                               SystemConfig(), RunOptions(), journal);
}

std::vector<Result<MixEvaluation>>
ProcessPool::evaluateSweep(const std::vector<SweepPoint> &points,
                           AloneIpcCache &alone, SweepJournal *journal)
{
    return execute<MixEvaluation>(points, wire::WireTask::Kind::Eval,
                                  alone.base(), alone.options(), journal);
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
    std::uint64_t tasks_done = 0;
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
        // Self-report: per-THIS-task execution time and simulated
        // cycles, so the supervisor's profile aggregation is a plain
        // sum.
        wire::WireWorkerReport &report = result.worker;
        report.pid = static_cast<std::uint64_t>(::getpid());
        report.tasks = ++tasks_done;
        report.exec_seconds =
            static_cast<double>(nowMs() - started_ms) / 1000.0;
        report.sim_cycles = task.kind == wire::WireTask::Kind::Run
                                ? runCyclesOf(result.run.value)
                                : runCyclesOf(result.eval.value.metrics);
        if (!wire::writeFrame(result_fd, wire::encodeResult(result)))
            return 1; // supervisor is gone
    }
    return 0; // EOF: clean shutdown
}

} // namespace padc::sim
