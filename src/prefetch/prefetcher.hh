/**
 * @file
 * Hardware prefetcher interface and factory (paper Sections 2.2, 2.3,
 * 6.11).
 *
 * Prefetchers observe L2 accesses (demand hits and misses) and emit
 * candidate prefetch line addresses. Issue-side filtering (already
 * cached, already in flight, MSHR or request buffer full, DDPF) is
 * performed by the system, not by the prefetcher.
 */

#ifndef PADC_PREFETCH_PREFETCHER_HH
#define PADC_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace padc::prefetch
{

/** Configuration for all prefetcher kinds (unused knobs ignored). */
struct PrefetcherConfig
{
    PrefetcherKind kind = PrefetcherKind::Stream;

    // --- stream prefetcher (IBM POWER4/5-like; paper Section 2.3) ---
    std::uint32_t stream_entries = 32; ///< concurrent streams
    std::uint32_t degree = 4;          ///< N: prefetches per trigger

    /**
     * D: monitoring-region length / lookahead, in lines.
     *
     * The paper uses 64; our default is 16. This is a deliberate time
     * rescaling (see DESIGN.md): the paper's cores consume a line every
     * ~150 cycles, so 64 lines of lookahead gave them a lead-to-DRAM-
     * latency ratio of a few; our faster OoO-lite cores consume a line
     * every ~10-30 cycles, and 16 lines reproduces a comparable ratio
     * (prefetches marginally timely under load). The distance-sweep
     * ablation bench exercises other values including the paper's 64.
     */
    std::uint32_t distance = 16;

    /**
     * Training window: an access within this many lines of a newly
     * allocated stream's start determines the stream direction.
     */
    std::uint32_t train_window = 16;

    // --- PC-based stride prefetcher ---
    std::uint32_t stride_entries = 256;

    // --- C/DC (CZone / Delta Correlation) ---
    std::uint32_t czone_shift = 16;     ///< log2 of the CZone size (64KB)
    std::uint32_t czone_entries = 64;   ///< tracked zones
    std::uint32_t delta_history = 16;   ///< deltas remembered per zone

    // --- Markov ---
    std::uint32_t markov_entries = 131072; ///< correlation-table entries
                                           ///< (the paper: "a large table")
    std::uint32_t markov_successors = 2; ///< successors per entry
};

/** PrefetcherConfig's field table; see common/fields.hh. */
template <fields::Of<PrefetcherConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("kind", s.kind);
    v("stream_entries", s.stream_entries);
    v("degree", s.degree);
    v("distance", s.distance);
    v("train_window", s.train_window);
    v("stride_entries", s.stride_entries);
    v("czone_shift", s.czone_shift);
    v("czone_entries", s.czone_entries);
    v("delta_history", s.delta_history);
    v("markov_entries", s.markov_entries);
    v("markov_successors", s.markov_successors);
}
static_assert(fields::complete<PrefetcherConfig>());

/**
 * Abstract prefetcher. One instance per core; all addresses are from
 * that core's stream.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one L2 access and append candidate prefetch *byte*
     * addresses (line-aligned) to @p out.
     *
     * @param addr       accessed address
     * @param pc         PC of the access
     * @param miss       true if the access missed in the L2
     * @param train_only true during runahead execution: update internal
     *                   state but do not allocate new pattern entries
     *                   (the paper's "only-train" policy, Section 6.14)
     * @param out        receives prefetch candidates, nearest first
     */
    virtual void observe(Addr addr, Addr pc, bool miss, bool train_only,
                         std::vector<Addr> &out) = 0;

    /** Prefetcher name for reports. */
    virtual const char *name() const = 0;

    /**
     * Adjust aggressiveness (used by Feedback Directed Prefetching).
     * Default: no-op for prefetchers without a degree/distance notion.
     */
    virtual void setAggressiveness(std::uint32_t degree,
                                   std::uint32_t distance)
    {
        (void)degree;
        (void)distance;
    }

    /** Current degree (0 if not applicable). */
    virtual std::uint32_t currentDegree() const { return 0; }
};

/** Instantiate the prefetcher selected by @p config. */
std::unique_ptr<Prefetcher> makePrefetcher(const PrefetcherConfig &config);

} // namespace padc::prefetch

#endif // PADC_PREFETCH_PREFETCHER_HH
