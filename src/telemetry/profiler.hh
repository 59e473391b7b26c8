/**
 * @file
 * Host-side scoped wall-clock profiling of the simulation pipeline.
 *
 * A process-wide singleton accumulates (nanoseconds, calls) per phase
 * through RAII scopes. The coarse phases (Build / Simulate / Collect)
 * wrap whole runMix stages, so their cost is a handful of clock reads
 * per simulated run. Nothing inside System::run's cycle loop is timed:
 * a clock read costs more than a controller tick, so per-layer cost
 * comes from replaying each layer standalone (perfbench), not from
 * sampling here. The counters are atomics so parallel sweep threads
 * can share the singleton; numbers therefore aggregate *across*
 * threads (CPU seconds, not elapsed seconds, when a sweep fans out).
 *
 * Alone wraps each alone-IPC run (AloneIpcCache::computeAlone) whole,
 * which no runMix phase covers.
 *
 * The driver snapshots-and-resets around each experiment and reports
 * the phases next to the sim-cycles/sec block and in the "profile"
 * member of BENCH_<name>.json.
 */

#ifndef PADC_TELEMETRY_PROFILER_HH
#define PADC_TELEMETRY_PROFILER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace padc::telemetry
{

/** Profiled pipeline phases. */
enum class ProfilePhase : std::uint8_t
{
    Build,    ///< trace construction + System assembly
    Simulate, ///< System::run
    Collect,  ///< metrics collection
    Alone,    ///< an alone-IPC run: build, run and collect
};

constexpr std::size_t kProfilePhases = 4;

/**
 * Process-wide wall-clock accumulator; see file comment.
 */
class WallProfiler
{
  public:
    static WallProfiler &instance();

    void add(ProfilePhase phase, std::uint64_t nanos)
    {
        Cell &cell = cells_[static_cast<std::size_t>(phase)];
        cell.nanos.fetch_add(nanos, std::memory_order_relaxed);
        cell.calls.fetch_add(1, std::memory_order_relaxed);
    }

    /** The cycle-loop work of one System::run. */
    struct LoopWork
    {
        std::uint64_t skipped_cycles = 0; ///< elided by next-event jumps
        std::uint64_t event_jumps = 0;    ///< next-event jumps taken
        std::uint64_t landed_cycles = 0;  ///< cycles the loop stepped on
        std::uint64_t core_ticks = 0;     ///< Core::tick calls
    };

    /** Add one run's loop work; System::run calls it once per run. */
    void addLoopWork(const LoopWork &work)
    {
        skipped_cycles_.fetch_add(work.skipped_cycles,
                                  std::memory_order_relaxed);
        event_jumps_.fetch_add(work.event_jumps, std::memory_order_relaxed);
        landed_cycles_.fetch_add(work.landed_cycles,
                                 std::memory_order_relaxed);
        core_ticks_.fetch_add(work.core_ticks, std::memory_order_relaxed);
    }

    /** Consistent-enough copy of the counters (relaxed reads). */
    struct Snapshot
    {
        struct Entry
        {
            std::uint64_t nanos = 0;
            std::uint64_t calls = 0;
        };
        std::array<Entry, kProfilePhases> entries;

        /** Simulated cycles elided by next-event jumps. */
        std::uint64_t skipped_cycles = 0;
        /** Number of next-event jumps taken. */
        std::uint64_t event_jumps = 0;
        /** Simulated cycles the loop stepped on rather than jumped. */
        std::uint64_t landed_cycles = 0;
        /** Core::tick calls. */
        std::uint64_t core_ticks = 0;

        double seconds(ProfilePhase phase) const
        {
            return static_cast<double>(
                       entries[static_cast<std::size_t>(phase)].nanos) *
                   1e-9;
        }
        std::uint64_t calls(ProfilePhase phase) const
        {
            return entries[static_cast<std::size_t>(phase)].calls;
        }
    };

    Snapshot snapshot() const;

    void reset();

    /** RAII phase timer. */
    class Scope
    {
      public:
        explicit Scope(ProfilePhase phase)
            : phase_(phase), start_(std::chrono::steady_clock::now())
        {
        }

        ~Scope()
        {
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            WallProfiler::instance().add(
                phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        ProfilePhase phase_;
        std::chrono::steady_clock::time_point start_;
    };

  private:
    struct Cell
    {
        std::atomic<std::uint64_t> nanos{0};
        std::atomic<std::uint64_t> calls{0};
    };

    std::array<Cell, kProfilePhases> cells_;
    std::atomic<std::uint64_t> skipped_cycles_{0};
    std::atomic<std::uint64_t> event_jumps_{0};
    std::atomic<std::uint64_t> landed_cycles_{0};
    std::atomic<std::uint64_t> core_ticks_{0};
};

} // namespace padc::telemetry

#endif // PADC_TELEMETRY_PROFILER_HH
