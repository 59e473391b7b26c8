#include "sim/parallel.hh"

#include <algorithm>
#include <utility>

namespace padc::sim
{

ParallelExperimentRunner::ParallelExperimentRunner(unsigned threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    // The calling thread participates in every batch, so spawn one
    // fewer worker than the requested total parallelism.
    workers_.reserve(threads - 1);
    for (unsigned i = 1; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ParallelExperimentRunner::~ParallelExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    work_ready_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ParallelExperimentRunner::forEach(std::size_t n,
                                  const std::function<void(std::size_t)> &fn)
{
    const std::vector<std::exception_ptr> errors = tryForEach(n, fn);
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

std::vector<std::exception_ptr>
ParallelExperimentRunner::tryForEach(
    std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return {};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        batch_size_ = n;
        next_index_ = 0;
        completed_ = 0;
        errors_.assign(n, nullptr);
        ++generation_;
    }
    work_ready_.notify_all();
    drainBatch();
    std::vector<std::exception_ptr> errors;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        batch_done_.wait(lock, [this] { return completed_ == batch_size_; });
        job_ = nullptr;
        errors.swap(errors_);
    }
    return errors;
}

void
ParallelExperimentRunner::drainBatch()
{
    for (;;) {
        const std::function<void(std::size_t)> *job = nullptr;
        std::size_t index = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (job_ == nullptr || next_index_ >= batch_size_)
                return;
            job = job_;
            index = next_index_++;
        }
        // A throwing job must still count toward batch completion --
        // otherwise forEach waits on completed_ forever (worker throw)
        // or std::terminate tears the process down (caller throw).
        std::exception_ptr error;
        try {
            (*job)(index);
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error)
                errors_[index] = std::move(error);
            ++completed_;
            if (completed_ == batch_size_)
                batch_done_.notify_all();
        }
    }
}

void
ParallelExperimentRunner::workerLoop()
{
    std::uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_ready_.wait(lock, [&] {
            return shutdown_ ||
                   (job_ != nullptr && generation_ != seen_generation &&
                    next_index_ < batch_size_);
        });
        if (shutdown_)
            return;
        seen_generation = generation_;
        lock.unlock();
        drainBatch();
        lock.lock();
    }
}

} // namespace padc::sim
