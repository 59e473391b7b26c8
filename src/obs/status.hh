/**
 * @file
 * Live sweep progress (DESIGN.md section 14): a rolling-window
 * rate/ETA estimator and the renderer of the stderr progress line a
 * `padc run --progress` prints.
 *
 * All timestamps are std::chrono::steady_clock milliseconds: wall
 * clocks step under NTP and would corrupt rates/ETAs mid-sweep. The
 * estimator takes `now_ms` as a parameter rather than reading a clock
 * so tests drive it deterministically.
 */

#ifndef PADC_OBS_STATUS_HH
#define PADC_OBS_STATUS_HH

#include <cstdint>
#include <deque>
#include <string>

namespace padc::obs
{

/** Steady-clock now in milliseconds (the only clock obs code uses). */
std::uint64_t steadyNowMs();

/**
 * Rolling-window completion-rate estimator.
 *
 * Only *executed* points are noted: on resume, journal-replayed points
 * complete thousands of times faster than real ones and must not
 * inflate the rate (they are excluded by the caller not noting them,
 * and the ETA math only counts remaining unfinished work).
 *
 * The window is the most recent `window` completions; the rate is
 * window-size over the time span back to the oldest windowed sample,
 * so it adapts to recent speed and decays toward zero while progress
 * stalls (the span keeps growing with `now`).
 */
class RateEstimator
{
  public:
    explicit RateEstimator(std::size_t window = 32);

    /** Record one executed-point completion at steady time @p now_ms. */
    void notePoint(std::uint64_t now_ms);

    /** Completions recorded so far (all, not just the window). */
    std::uint64_t noted() const { return noted_; }

    /**
     * Estimated completions per second at @p now_ms; 0.0 until two
     * samples exist (no span to divide by).
     */
    double ratePerSec(std::uint64_t now_ms) const;

    /**
     * Seconds to finish @p remaining points at the current rate;
     * negative when the rate is still unknown.
     */
    double etaSeconds(std::uint64_t now_ms, std::uint64_t remaining) const;

  private:
    std::size_t window_;
    std::uint64_t noted_ = 0;
    std::deque<std::uint64_t> times_; ///< newest at back
};

/** How a sweep point ended: it decides the counters the point moves. */
enum class PointEnding : std::uint8_t
{
    Ran,         ///< executed (ok, truncated or failed)
    Replayed,    ///< served from the resume journal
    Interrupted, ///< a stop came before it started
};

/** What the progress line shows of the current sweep. */
struct SweepStatus
{
    std::string experiment;
    std::uint64_t total = 0;
    std::uint64_t done = 0;     ///< ran + replayed + interrupted
    std::uint64_t replayed = 0; ///< satisfied from the resume journal
    double rate_per_sec = 0.0;
    double eta_seconds = -1.0; ///< negative = unknown
};

/** One-line progress summary for the stderr --progress stream. */
std::string renderProgressLine(const SweepStatus &status);

} // namespace padc::obs

#endif // PADC_OBS_STATUS_HH
