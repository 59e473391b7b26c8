/**
 * @file
 * Parallel experiment runner for embarrassingly parallel sweeps.
 *
 * Every figure bench evaluates a grid of (policy x workload x config)
 * points, each of which builds its own System and trace generators from
 * explicit seeds and shares no mutable state with any other point. The
 * runner fans such points across a persistent std::thread pool.
 *
 * Determinism contract: a job must derive all randomness from its own
 * point (seeds carried in RunOptions / trace parameters) and must not
 * mutate shared state. Under that contract the runner guarantees
 * results identical to serial execution: jobs are indexed, each index
 * runs exactly once, and results are collected into a vector ordered by
 * index -- never by completion time. Thread count (including 1) is
 * therefore purely a wall-clock knob; it can never change a reported
 * number. The `padc` driver builds one runner per run from its
 * --threads flag; there is no process-wide runner.
 *
 * Failure contract: a job that throws never terminates the process,
 * never deadlocks the batch, and never poisons the pool. Exceptions are
 * captured per index on whatever thread ran the job; every remaining
 * index still runs. forEach/map rethrow the lowest-index exception on
 * the calling thread once the batch has fully drained (deterministic
 * regardless of thread count); tryForEach instead reports every
 * captured exception so callers can degrade per point.
 */

#ifndef PADC_SIM_PARALLEL_HH
#define PADC_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace padc::sim
{

/** Upper bound accepted from `padc run --threads`. */
inline constexpr unsigned kMaxThreads = 1024;

/**
 * A persistent pool of worker threads executing indexed jobs.
 */
class ParallelExperimentRunner
{
  public:
    /**
     * @param threads worker count; 0 means hardware concurrency (at
     *        least 1).
     */
    explicit ParallelExperimentRunner(unsigned threads = 0);

    ~ParallelExperimentRunner();

    ParallelExperimentRunner(const ParallelExperimentRunner &) = delete;
    ParallelExperimentRunner &
    operator=(const ParallelExperimentRunner &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size() + 1); // + caller
    }

    /**
     * Run fn(0), ..., fn(n-1), distributing indices across the pool (the
     * calling thread participates). Returns when every call finished.
     * @p fn must be safe to call concurrently for distinct indices.
     * Reentrant calls (fn itself calling forEach) are not supported.
     *
     * If any job threw, the exception captured for the lowest throwing
     * index is rethrown here (on the calling thread) after the whole
     * batch drained; the pool stays usable for subsequent batches.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Like forEach, but never throws for job failures: returns one
     * std::exception_ptr per index, null where fn(i) succeeded. The
     * fault-tolerant sweep layer uses this to turn per-point failures
     * into recorded diagnostics instead of aborting the sweep.
     */
    std::vector<std::exception_ptr>
    tryForEach(std::size_t n, const std::function<void(std::size_t)> &fn);

    /**
     * Ordered map: returns {fn(0), ..., fn(n-1)}, always indexed by
     * point, never by completion order. Rethrows like forEach.
     */
    template <typename R>
    std::vector<R> map(std::size_t n,
                       const std::function<R(std::size_t)> &fn)
    {
        std::vector<R> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    void workerLoop();

    /** Claim and run job indices until the current batch is exhausted. */
    void drainBatch();

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable batch_done_;

    // Current batch (guarded by mutex_; indices claimed under the lock).
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t batch_size_ = 0;
    std::size_t next_index_ = 0;
    std::size_t completed_ = 0;
    std::uint64_t generation_ = 0;
    bool shutdown_ = false;

    /** Per-index exceptions of the current batch (null = succeeded). */
    std::vector<std::exception_ptr> errors_;
};

} // namespace padc::sim

#endif // PADC_SIM_PARALLEL_HH
