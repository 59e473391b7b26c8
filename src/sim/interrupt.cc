#include "sim/interrupt.hh"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "common/parse.hh"

namespace padc::sim
{

namespace
{

/**
 * The stop flag. std::atomic<int> rather than volatile sig_atomic_t:
 * lock-free atomics are async-signal-safe, and the sweep runner's
 * threads poll the flag before each point while another runner thread's
 * notePointCompleted() (or the signal handler) writes it, so plain
 * volatile would be a cross-thread data race.
 */
std::atomic<int> g_interrupt{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handlers require a lock-free stop flag");

/**
 * Remaining PADC_TEST_INTERRUPT_AFTER budget; negative = hook disarmed.
 * Only resetInterruptState() arms it, so a library caller that never
 * calls it ignores the variable.
 */
std::atomic<long> g_points_remaining{-1};

} // namespace

bool
interruptRequested()
{
    return g_interrupt.load(std::memory_order_relaxed) != 0;
}

void
requestInterrupt()
{
    g_interrupt.store(1, std::memory_order_relaxed);
}

void
resetInterruptState()
{
    g_interrupt.store(0, std::memory_order_relaxed);
    g_points_remaining.store(-1, std::memory_order_relaxed);

    const char *env = std::getenv("PADC_TEST_INTERRUPT_AFTER");
    if (env == nullptr)
        return;
    std::uint64_t parsed = 0;
    if (!parseU64(env, &parsed) || parsed > LONG_MAX) {
        std::fprintf(stderr,
                     "padc: warning: invalid PADC_TEST_INTERRUPT_AFTER="
                     "\"%s\" (want a non-negative integer); ignored\n",
                     env);
        return;
    }
    if (parsed == 0) {
        requestInterrupt();
        return;
    }
    g_points_remaining.store(static_cast<long>(parsed),
                             std::memory_order_relaxed);
}

void
notePointCompleted()
{
    // fetch_sub on a disarmed counter would slowly walk it toward
    // LONG_MIN; bail out first (the re-check after the decrement keeps
    // the armed path race-free).
    if (g_points_remaining.load(std::memory_order_relaxed) < 0)
        return;
    if (g_points_remaining.fetch_sub(1, std::memory_order_relaxed) <= 1)
        requestInterrupt();
}

} // namespace padc::sim
