/**
 * @file
 * Crash-isolated process-sharded sweep executor.
 *
 * A ProcessPool runs sweep points in `padc worker` subprocesses so that
 * a point that crashes the simulator (or is killed by the OOM killer,
 * or wedges) takes down one worker, not the whole sweep. The supervisor
 * forks+execs /proc/self/exe with a `worker` argv, talks to each worker
 * over a pair of pipes (tasks down fd 3, results up fd 4; see
 * sim/wire.hh for the frame format), and merges results back in point
 * order, so a pool sweep returns exactly what the in-thread
 * sim::runSweep / sim::evaluateSweep contract promises.
 *
 * Robustness model:
 *  - Worker death (crash, signal, nonzero exit, heartbeat timeout) is
 *    detected via pipe EOF / poll(2); the in-flight point is retried on
 *    another worker with exponential backoff, up to a bounded number of
 *    attempts.
 *  - A point that keeps killing workers is quarantined: it completes as
 *    PointStatus::Failed with the last worker's exit diagnostics in the
 *    outcome, and the sweep carries on. Quarantined points are NOT
 *    journaled, so a resumed run gets to try them again.
 *  - Exactly-once journaling: only the supervisor appends to the
 *    SweepJournal, and only when a worker's result frame has fully
 *    arrived. A supervisor killed mid-sweep therefore re-runs only the
 *    points whose results it had not yet recorded.
 *  - Graceful interrupt (see sim/interrupt.hh): busy workers are killed
 *    immediately (never waited on -- one may be wedged), idle workers
 *    are shut down via pipe EOF, and unfinished points complete as
 *    Failed "interrupted" without being journaled.
 *
 * Workers are plain child processes running the same binary, so the
 * merged results are bit-identical to an in-thread run: the wire format
 * round-trips doubles exactly, and each point's simulation is
 * deterministic given its config.
 */

#ifndef PADC_SIM_PROCPOOL_HH
#define PADC_SIM_PROCPOOL_HH

#include <signal.h>
#include <sys/types.h>

#include <cstdint>
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

/** Tunables of the supervisor's retry/backoff/timeout machinery. */
struct ProcPoolConfig
{
    unsigned workers = 0; ///< subprocess count; 0 disables the pool

    /** Max dispatches per point before quarantine (PADC_WORKER_ATTEMPTS). */
    std::uint32_t max_attempts = 3;

    /** Per-task heartbeat: SIGKILL a worker whose task exceeds this
     * (PADC_WORKER_TIMEOUT_MS). Also bounds a respawned worker's
     * handshake. */
    std::uint64_t heartbeat_timeout_ms = 120000;

    /** First retry delay (PADC_RETRY_BACKOFF_MS); doubles per retry. */
    std::uint64_t backoff_initial_ms = 100;

    /** Retry delay ceiling. */
    std::uint64_t backoff_max_ms = 5000;

    /**
     * @p workers plus the PADC_WORKER_ATTEMPTS / PADC_WORKER_TIMEOUT_MS /
     * PADC_RETRY_BACKOFF_MS environment overrides (strictly parsed;
     * malformed values warn on stderr and keep the default).
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
        std::uint64_t sim_cycles = 0; ///< worker-reported, summed
        double exec_seconds = 0.0;    ///< worker-reported busy time
    };

    /**
     * The pool's counters accumulated since the last drain — the
     * additive per-worker members of the BENCH JSON `profile` block. A
     * window is drained per experiment so each BENCH document describes
     * only its own sweep. sim_cycles / exec_seconds come from the
     * workers' wire self-reports (WireWorkerReport).
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
     * @param worker_argv argv (argv[0] = executable path) that execs
     *        into worker mode, e.g. {"/proc/self/exe", "worker", ...}
     * @param config pool size and retry tunables
     */
    ProcessPool(std::vector<std::string> worker_argv, ProcPoolConfig config);

    ~ProcessPool();

    ProcessPool(const ProcessPool &) = delete;
    ProcessPool &operator=(const ProcessPool &) = delete;

    /**
     * Spawn the workers (first call only) and wait for their hello
     * handshakes.
     * @return true when at least one worker came up; false when the
     *         pool is disabled (workers == 0) or every spawn/exec
     *         failed -- callers then fall back to the in-thread runner.
     */
    bool available();

    /**
     * Pool equivalent of sim::runSweep: results ordered like @p points,
     * every point carries its own outcome, journaled points replay.
     * Spawns the workers on first use. The pool has no in-thread
     * fallback: when available() is false every point that is not
     * replayed fails as "no live workers left", so callers check
     * available() and run in-thread instead.
     */
    std::vector<Result<RunMetrics>>
    runSweep(const std::vector<SweepPoint> &points,
             SweepJournal *journal = nullptr);

    /**
     * Pool equivalent of sim::evaluateSweep. The alone-run baseline of
     * @p alone is shipped to the workers, which keep their own caches
     * (warm across the tasks each one executes); the supervisor-side
     * cache is not consulted. Spawns and fails like runSweep.
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
        bool retired = false; ///< permanently dead (exec/handshake failed)
        bool timed_out = false;       ///< killed by the heartbeat
        std::int64_t task = -1;       ///< in-flight point index; -1 idle
        std::uint64_t deadline_ms = 0; ///< heartbeat / handshake deadline
        std::uint64_t task_started_ms = 0; ///< dispatch time (profile)

        bool alive() const { return pid > 0; }
    };

    template <typename T>
    std::vector<Result<T>>
    execute(const std::vector<SweepPoint> &points, wire::WireTask::Kind kind,
            const SystemConfig &alone_base, const RunOptions &alone_options,
            SweepJournal *journal);

    bool spawnWorker(Worker *worker);
    /**
     * waitpid + close + report the exit to the monitor; returns the
     * fate text. With WNOHANG in @p wait_options a worker that is still
     * running is left alone and the result is empty.
     */
    std::string reapWorker(Worker *worker, int wait_options = 0);
    void shutdownWorkers();                 ///< EOF + reap every worker
    std::size_t slotOf(const Worker &worker) const;
    WorkerSlotProfile &slotProfile(const Worker &worker);

    std::vector<std::string> argv_;
    ProcPoolConfig config_;
    std::vector<Worker> workers_;
    PoolProfile profile_;
    bool spawned_ = false;
    bool usable_ = false;
    bool sigpipe_saved_ = false;
    struct sigaction old_sigpipe_ = {};
};

} // namespace padc::sim

#endif // PADC_SIM_PROCPOOL_HH
