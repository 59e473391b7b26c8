/**
 * @file
 * Graceful-stop coordination for sweeps.
 *
 * A single process-wide flag, settable from a signal handler
 * (async-signal-safe), that the sweep layers poll between points: a
 * point that has not started when the flag rises is recorded as Failed
 * with detail "interrupted" and deliberately NOT journaled, so a
 * later `padc run --resume` retries it. Points already in flight run
 * to completion (in-thread execution cannot be cancelled safely).
 *
 * The PADC_TEST_INTERRUPT_AFTER=<n> hook raises the flag automatically
 * after n completed sweep points, giving tests a deterministic stand-in
 * for an operator's Ctrl-C (real signal timing is unreproducible).
 */

#ifndef PADC_SIM_INTERRUPT_HH
#define PADC_SIM_INTERRUPT_HH

namespace padc::sim
{

/** Detail string carried by points skipped due to a graceful stop. */
inline constexpr char kInterruptedDetail[] = "interrupted";

/** True once a graceful stop has been requested. */
bool interruptRequested();

/**
 * Request a graceful stop. Async-signal-safe: only writes a lock-free
 * atomic flag, so SIGINT/SIGTERM handlers may call it directly; the
 * atomic (not plain sig_atomic_t) also makes it safe for one sweep
 * runner thread to raise the flag (via notePointCompleted) while the
 * others poll interruptRequested().
 */
void requestInterrupt();

/**
 * Clear the flag and (re)arm the PADC_TEST_INTERRUPT_AFTER counter from
 * the environment. The driver calls this at the start of every `run`
 * invocation so one interrupted in-process run cannot leak its stop
 * request into the next.
 */
void resetInterruptState();

/**
 * Count one executed (not journal-replayed) sweep point toward the
 * PADC_TEST_INTERRUPT_AFTER budget; raises the interrupt flag when the
 * budget is exhausted. No-op unless the hook is armed.
 */
void notePointCompleted();

} // namespace padc::sim

#endif // PADC_SIM_INTERRUPT_HH
