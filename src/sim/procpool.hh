/**
 * @file
 * Crash-isolated process-sharded sweep executor.
 *
 * A ProcessPool runs sweep points in `padc worker` subprocesses so that
 * a point that crashes the simulator (or is killed by the OOM killer,
 * or wedges) takes down one worker, not the whole sweep. The supervisor
 * forks+execs /proc/self/exe with a `worker` argv and talks to each
 * worker over a pair of pipes (tasks down fd 3, results up fd 4; see
 * sim/wire.hh for the frame format). The pool only executes: its
 * sweeps run through sim::runPoints, the body of the in-thread sweeps,
 * which owns the journal, fails the points that did not run and
 * reports every point to the monitor.
 *
 * Robustness model:
 *  - Every wait of the supervisor goes through one poll step: start-up
 *    (the constructor waits for each worker's hello), sweeps and
 *    shutdown. The step decides when a worker is ready and when it is
 *    dead, in one place.
 *  - Worker death (crash, signal, nonzero exit, missed handshake or
 *    heartbeat deadline) is detected via pipe EOF / poll(2); the
 *    in-flight point is retried on a respawned worker after 100 ms,
 *    then 200 ms, up to 3 attempts. A worker that dies before its hello
 *    is retired, never respawned.
 *  - A point that keeps killing workers is quarantined, and when no
 *    worker is left the remaining points are stranded: either way the
 *    point did not run, so it fails with the last worker's fate, the
 *    sweep carries on, and a resume retries it.
 *  - Exactly-once journaling: a point reaches the sweep body only once
 *    its worker's result frame has fully arrived, so a supervisor
 *    killed mid-sweep re-runs only the points not yet recorded.
 *  - Graceful interrupt (see sim/interrupt.hh): busy workers are killed
 *    immediately (never waited on -- one may be wedged), idle workers
 *    are shut down via pipe EOF, and unfinished points end interrupted.
 *
 * Workers run the same binary, so the merged results are bit-identical
 * to an in-thread run: the wire round-trips doubles exactly, and each
 * point's simulation is deterministic given its config.
 */

#ifndef PADC_SIM_PROCPOOL_HH
#define PADC_SIM_PROCPOOL_HH

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "sim/experiment.hh"
#include "sim/wire.hh"

namespace padc::sim
{

class SweepJournal;

/** The fds a worker inherits its pipe ends on (after dup2 in the child). */
inline constexpr int kWorkerTaskFd = 3;   ///< worker reads tasks here
inline constexpr int kWorkerResultFd = 4; ///< worker writes results here

/**
 * The pool's two settings. Attempts and retry delays are constants of
 * the supervisor (see the file comment); only the pool size and the
 * deadline depend on the host and the build.
 */
struct ProcPoolConfig
{
    unsigned workers = 0; ///< subprocess count; 0 disables the pool

    /** Per-task heartbeat: SIGKILL a worker whose task exceeds this
     * (PADC_WORKER_TIMEOUT_MS). Also bounds every worker's handshake,
     * at start-up and after a respawn. */
    std::uint64_t heartbeat_timeout_ms = 120000;

    /**
     * @p workers plus the PADC_WORKER_TIMEOUT_MS environment override
     * (strictly parsed; a malformed value warns on stderr and keeps the
     * default).
     */
    static ProcPoolConfig fromEnv(unsigned workers);
};

/**
 * Supervisor of a fixed-size pool of `padc worker` subprocesses. See
 * the file comment for the robustness model.
 *
 * Not thread-safe: one sweep at a time, from one thread.
 */
class ProcessPool
{
  public:
    /** Per-slot lifetime accounting inside a PoolProfile window. */
    struct WorkerSlotProfile
    {
        std::int64_t pid = -1;        ///< last pid seen in this slot
        std::uint64_t tasks = 0;      ///< results received
        std::uint64_t dispatches = 0; ///< tasks handed out (>= tasks)
        std::uint64_t kills = 0;      ///< heartbeat SIGKILLs
        std::uint64_t sim_cycles = 0; ///< of the results received
        double exec_seconds = 0.0;    ///< worker-reported busy time
    };

    /**
     * The pool's counters accumulated since the last drain — the
     * additive per-worker members of the BENCH JSON `profile` block. A
     * window is drained per experiment so each BENCH document describes
     * only its own sweep. sim_cycles sums the results' cycles();
     * exec_seconds comes from the workers' wire self-reports
     * (WireWorkerReport).
     */
    struct PoolProfile
    {
        std::uint64_t tasks = 0;       ///< results computed by workers
        std::uint64_t replayed = 0;    ///< points served from the journal
        std::uint64_t retries = 0;     ///< re-dispatches after a death
        std::uint64_t respawns = 0;    ///< workers respawned after a death
        std::uint64_t quarantined = 0; ///< points that exhausted attempts
        std::uint64_t timeout_kills = 0;
        std::uint64_t sim_cycles = 0;
        double exec_seconds = 0.0;
        /** Dispatch->result round trip, ms (heartbeat latency). */
        Histogram task_ms{250, 10};
        std::vector<WorkerSlotProfile> workers; ///< by slot
    };

    /**
     * Spawn the workers and wait until each has said hello or is
     * retired (died, or missed its handshake deadline).
     * @param worker_argv argv (argv[0] = executable path) that execs
     *        into worker mode, e.g. {"/proc/self/exe", "worker", ...}
     * @param config pool size and heartbeat deadline
     */
    ProcessPool(std::vector<std::string> worker_argv, ProcPoolConfig config);

    ~ProcessPool();

    ProcessPool(const ProcessPool &) = delete;
    ProcessPool &operator=(const ProcessPool &) = delete;

    /**
     * @return true when at least one worker came up at construction;
     *         false when the pool is disabled (workers == 0) or every
     *         worker was retired -- callers then run in-thread.
     */
    bool available() const { return usable_; }

    /**
     * Pool equivalent of sim::runSweep: sim::runPoints with this pool's
     * executor. With no live worker (available() false) every point
     * that is not replayed is stranded, so callers check available()
     * and run in-thread.
     */
    std::vector<Result<RunMetrics>>
    runSweep(const std::vector<SweepPoint> &points,
             SweepJournal *journal = nullptr);

    /**
     * Pool equivalent of sim::evaluateSweep. The workers get @p alone's
     * baseline and keep their own warm alone caches; the supervisor's
     * cache is not consulted.
     */
    std::vector<Result<MixEvaluation>>
    evaluateSweep(const std::vector<SweepPoint> &points,
                  AloneIpcCache &alone, SweepJournal *journal = nullptr);

    /** Return the profile window accumulated so far and start a new one. */
    PoolProfile drainProfile();

    /**
     * Worker-process entry point: handshake, then serve task frames
     * from @p task_fd until EOF (the supervisor's shutdown signal),
     * writing one result frame per task to @p result_fd.
     * Installs SIG_IGN for SIGINT/SIGTERM (a terminal Ctrl-C hits the
     * whole process group; shutdown is the supervisor's call) and
     * honors PADC_FAULT_INJECT (see sim/wire.hh).
     * @return the worker's exit status (0 on clean EOF shutdown).
     */
    static int workerMain(int task_fd, int result_fd);

  private:
    struct Worker
    {
        pid_t pid = -1;
        int task_fd = -1;     ///< supervisor writes tasks (worker fd 3)
        int result_fd = -1;   ///< supervisor reads results (worker fd 4)
        wire::FrameBuffer frames;
        bool ready = false;   ///< hello received
        bool retired = false; ///< died before its hello; never respawned
        bool timed_out = false;       ///< killed by the heartbeat
        std::int64_t task = -1;       ///< in-flight point index; -1 idle
        std::uint64_t deadline_ms = 0; ///< heartbeat / handshake deadline
        std::uint64_t task_started_ms = 0; ///< dispatch time (profile)

        bool alive() const { return pid > 0; }
    };

    /** The executor of runSweep and evaluateSweep (sim::runPoints). */
    template <typename T>
    void execute(const std::vector<SweepPoint> &points,
                 const std::vector<std::size_t> &todo,
                 const FinishPoint<T> &finish,
                 const AloneIpcCache *alone = nullptr);

    /** A worker's result for its in-flight point @p index. */
    using OnResult = std::function<void(std::size_t index, Worker &worker,
                                        wire::WireResult &result)>;
    /** A worker died holding point @p index; @p fate says how. */
    using OnLost =
        std::function<void(std::size_t index, const std::string &fate)>;

    /**
     * The one poll step of start-up, sweeps and shutdown: wait until a
     * live worker's result pipe has data or EOF, a handshake or
     * heartbeat deadline passes, or @p wake_ms comes (at most 1 s),
     * then handle what came. A hello marks its worker ready, a result
     * for the worker's in-flight point goes to @p on_result, any other
     * frame kills its sender, an EOF reaps the worker, and a missed
     * deadline kills it with the timeout as its fate. A worker that
     * dies holding a point hands it to @p on_lost.
     */
    void step(std::uint64_t wake_ms, const OnResult &on_result = {},
              const OnLost &on_lost = {});

    bool spawnWorker(Worker *worker);
    /**
     * waitpid + close + report the exit to the monitor; returns the
     * fate text. A worker reaped before its hello is retired.
     */
    std::string reapWorker(Worker *worker);
    /** SIGKILL + reapWorker; returns the fate text. */
    std::string killWorker(Worker *worker);
    bool anyAlive() const;
    void shutdownWorkers(); ///< EOF, step until reaped, kill the rest
    std::size_t slotOf(const Worker &worker) const;
    WorkerSlotProfile &slotProfile(const Worker &worker);

    std::vector<std::string> argv_;
    ProcPoolConfig config_;
    std::vector<Worker> workers_;
    PoolProfile profile_;
    bool usable_ = false;
    bool sigpipe_saved_ = false;
    struct sigaction old_sigpipe_ = {};
};

} // namespace padc::sim

#endif // PADC_SIM_PROCPOOL_HH
