/**
 * @file
 * DRAM request scheduling policies (paper Sections 1, 4.2, 6.5).
 *
 * Every policy is expressed as a priority-key function over request
 * buffer entries; the controller services the schedulable request with
 * the numerically largest key. Key layout (most significant first):
 *
 *   [ level-0 class ][ row-hit ][ urgent ][ rank ][ inverted arrival ]
 *
 * The level-0 class and the urgent bit are *data*, not code: each
 * SchedPolicyKind owns a PolicyLattice table mapping
 * (RequestClass, per-core accuracy state) -> lattice level + urgency,
 * so the paper's policies fall out as table rows:
 *   - demand-prefetch-equal (FR-FCFS): every class level 1
 *     (prefetch-blind)
 *   - demand-first:   demand-like classes level 1, prefetch-like 0
 *   - prefetch-first: prefetch-like classes level 1, demand-like 0
 *   - APS:            critical (demand, or prefetch from an accurate
 *                     core) level 1, inaccurate prefetch level 0;
 *                     urgency marks demands from inaccurate cores
 * and urgent/rank participate only where the table says they do (APS
 * with the corresponding features enabled; Rule 1 / Rule 2 of the
 * paper). Adding a policy or a request class is a table edit, not a
 * switch edit across the controller.
 */

#ifndef PADC_MEMCTRL_POLICY_HH
#define PADC_MEMCTRL_POLICY_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/config.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/request.hh"

namespace padc::memctrl
{

/** Maximum cores supported by the packed rank field. */
inline constexpr std::uint32_t kMaxCores = 64;

/**
 * One cell of a policy's lattice table: the level-0 class (1 =
 * preferred, 0 = deprioritized) and whether requests in this cell are
 * urgency-boosted (consulted only when urgency is enabled).
 */
struct LatticeSlot
{
    std::uint8_t level;
    bool urgent;
};

/**
 * The full priority lattice of one scheduling policy: for every
 * RequestClass, one slot per per-core accuracy state
 * (slots[cls][0] = inaccurate core, slots[cls][1] = accurate core),
 * plus whether Rule-2 ranking participates in this policy's keys.
 *
 * Writeback rows are reserved: the write scheduler is plain FR-FCFS
 * over the separate write queue and never consults the lattice.
 * PtwRead and DramCacheFill rows are reserved for the two-tier memory
 * scenario (ROADMAP) so wiring those traffic sources needs no lattice
 * surgery: PtwRead ranks with demands, DramCacheFill with prefetches.
 */
struct PolicyLattice
{
    std::array<std::array<LatticeSlot, 2>, kRequestClassCount> slots;

    /** Rule-2 RANK participates in keys (APS only; footnote 12). */
    bool ranked;

    const std::array<LatticeSlot, 2> &of(RequestClass cls) const
    {
        return slots[static_cast<std::size_t>(cls)];
    }
};

/** The lattice table of @p kind (static storage, never fails). */
const PolicyLattice &policyLattice(SchedPolicyKind kind);

/** Complete scheduler + buffer-management configuration. */
struct SchedulerConfig
{
    SchedPolicyKind kind = SchedPolicyKind::Aps;

    /** Adaptive Prefetch Dropping enabled (APS + APD == PADC). */
    bool apd_enabled = true;

    /** Rule-1 step 3: urgent-demand prioritization (Section 6.3.4). */
    bool urgency_enabled = true;

    /** Rule-2 RANK level: shortest-job-first fairness (Section 6.5). */
    bool ranking_enabled = false;

    /** Prefetch accuracy at/above which prefetches become critical. */
    double promotion_threshold = 0.85;

    /** Memory request buffer capacity (reads; matches L2 MSHR count). */
    std::uint32_t request_buffer_size = 128;

    /** Start draining writes above this occupancy. */
    std::uint32_t write_drain_high = 48;

    /** Stop draining writes below this occupancy. */
    std::uint32_t write_drain_low = 16;

    /** Row-buffer management (Section 6.8). */
    RowPolicy row_policy = RowPolicy::Open;

    /** APD age quantum: AGE advances once per this many cycles. */
    Cycle age_quantum = 100;

    /**
     * APD drop thresholds (processor cycles) for the four accuracy bands
     * delimited by drop_accuracy_bounds (paper Table 6).
     */
    std::array<Cycle, 4> drop_thresholds = {100, 1500, 50000, 100000};
    std::array<double, 3> drop_accuracy_bounds = {0.10, 0.30, 0.70};

    AccuracyConfig accuracy;

    /** Append one diagnostic per violated constraint under @p prefix. */
    void validate(ConfigErrors &errors, const std::string &prefix) const;
};

/** SchedulerConfig's field table; see common/fields.hh. */
template <fields::Of<SchedulerConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("kind", s.kind);
    v("apd_enabled", s.apd_enabled);
    v("urgency_enabled", s.urgency_enabled);
    v("ranking_enabled", s.ranking_enabled);
    v("promotion_threshold", s.promotion_threshold);
    v("request_buffer_size", s.request_buffer_size);
    v("write_drain_high", s.write_drain_high);
    v("write_drain_low", s.write_drain_low);
    v("row_policy", s.row_policy);
    v("age_quantum", s.age_quantum);
    v("drop_thresholds", s.drop_thresholds);
    v("drop_accuracy_bounds", s.drop_accuracy_bounds);
    v("accuracy", s.accuracy);
}
static_assert(fields::complete<SchedulerConfig>());

/**
 * Reject core counts the packed rank field (and every per-core mask in
 * the controller) cannot represent. Part of the accumulated-ConfigError
 * validation path: construction-time code may assume
 * num_cores <= kMaxCores once validation passed.
 */
void validateCoreCount(std::uint32_t num_cores, ConfigErrors &errors,
                       const std::string &field);

/**
 * Per-scheduling-round context shared by all key computations:
 * the policy's lattice table, the accuracy tracker (which selects the
 * per-core accuracy column), and per-core ranks (for Rule 2).
 */
class SchedContext
{
  public:
    SchedContext(const SchedulerConfig &config,
                 const AccuracyTracker &tracker);

    /** True when @p core's prefetches are currently critical. */
    bool coreAccurate(CoreId core) const
    {
        return tracker_.accuracy(core) >= config_.promotion_threshold;
    }

    /** Critical = demand, or prefetch from an accurate core (Sec. 4.2). */
    bool isCritical(const Request &req) const
    {
        return req.isDemand() || coreAccurate(req.core);
    }

    /**
     * Recompute per-core ranks from critical-request occupancy counts
     * (shortest job first: fewer outstanding critical requests -> higher
     * rank). No-op unless ranking is enabled.
     *
     * @param critical_counts outstanding critical requests per core
     * @param num_cores cores participating
     * @return true when any core's rank changed
     */
    bool updateRanks(const std::array<std::uint32_t, kMaxCores>
                         &critical_counts,
                     std::uint32_t num_cores);

    /**
     * Lattice cell of a @p cls request from a core whose accuracy state
     * is @p accurate. Scans pass one bit of the round's accurate-core
     * mask, so they read the tracker once per core, not per request.
     */
    LatticeSlot latticeSlot(RequestClass cls, bool accurate) const
    {
        return lattice_.of(cls)[accurate ? 1 : 0];
    }

    /**
     * Lattice level of a @p cls request from @p core under the
     * configured policy (1 = preferred class, 0 = deprioritized). The
     * paper's rigid policies are *strict* within a bank: a level-0
     * request to a bank may not be scheduled while any level-1 request
     * to the same bank is outstanding ("prefetch requests to a bank are
     * not scheduled until all the demand requests to the same bank are
     * serviced"). The controller enforces this with per-bank class
     * masks.
     */
    std::uint32_t latticeLevel(RequestClass cls, CoreId core) const
    {
        return latticeSlot(cls, coreAccurate(core)).level;
    }

    /**
     * True when some class's lattice slot differs between the accurate
     * and inaccurate columns, i.e. scheduling decisions depend on
     * per-core accuracy (APS). Callers use this to decide whether the
     * accurate-core mask must be computed each round.
     */
    bool latticeAccuracyDependent() const { return accuracy_dependent_; }

    /**
     * Whole-bank level-1 occupancy check over the shard's aggregate
     * counters: true when the bank holds at least one request whose
     * lattice level is 1 (a "preferred" request that blocks level-0
     * requests to the same bank).
     *
     * @param queued_demands number of queued demand reads in the bank
     * @param pref_core_mask or-mask of cores with queued prefetches
     * @param accurate_mask or-mask of currently accurate cores (only
     *        consulted when latticeAccuracyDependent())
     */
    bool shardHasPreferred(std::uint32_t queued_demands,
                           std::uint64_t pref_core_mask,
                           std::uint64_t accurate_mask) const;

    /**
     * Priority key for @p req given current @p row_hit status; larger is
     * higher priority. Deterministic total order (ties broken by
     * arrival, which the controller guarantees unique per channel).
     */
    std::uint64_t priorityKey(const Request &req, bool row_hit) const;

    /**
     * Raw-field variant of priorityKey() for the structure-of-arrays
     * scheduler scan: identical key, computed from the hot columns
     * (request class, core, seq) without touching the Request record.
     */
    std::uint64_t priorityKey(RequestClass cls, CoreId core,
                              std::uint64_t seq, bool row_hit) const
    {
        assert(core < kMaxCores);
        return keyHigh(latticeSlot(cls, coreAccurate(core)), core) |
               rowHitBits(row_hit) | arrivalBits(seq);
    }

    /**
     * The key fields fixed by the lattice cell and the core (level-0
     * class, urgent, rank). They change only with the ranks, so a scan
     * can look them up per (core, class) and OR in rowHitBits() and
     * arrivalBits() per request.
     */
    std::uint64_t keyHigh(LatticeSlot slot, CoreId core) const
    {
        const std::uint64_t level0 = slot.level;
        const std::uint64_t urgent =
            (slot.urgent && config_.urgency_enabled) ? 1 : 0;
        // Footnote 12: only critical (level-1) requests are ranked;
        // level-0 requests keep the lowest rank value (0).
        std::uint64_t rank = 0;
        if (lattice_.ranked && config_.ranking_enabled && slot.level != 0)
            rank = rank_[core];
        return (level0 << kLevel0Shift) | (urgent << kUrgentShift) |
               (rank << kRankShift);
    }

    /** Row-hit field of a key. */
    static std::uint64_t rowHitBits(bool row_hit)
    {
        return row_hit ? 1ULL << kRowHitShift : 0;
    }

    /** Inverted-arrival (FCFS) field of the key of request @p seq. */
    static std::uint64_t arrivalBits(std::uint64_t seq)
    {
        return (~seq) & kArrivalMask;
    }

    const SchedulerConfig &config() const { return config_; }

    const PolicyLattice &lattice() const { return lattice_; }

  private:
    /// Width of the inverted-arrival (FCFS) field in the packed key.
    static constexpr std::uint32_t kArrivalBits = 52;
    static constexpr std::uint64_t kArrivalMask = (1ULL << kArrivalBits) - 1;
    static constexpr std::uint32_t kRankShift = kArrivalBits;       // 8 bits
    static constexpr std::uint32_t kUrgentShift = kRankShift + 8;   // 1 bit
    static constexpr std::uint32_t kRowHitShift = kUrgentShift + 1; // 1 bit
    static constexpr std::uint32_t kLevel0Shift = kRowHitShift + 1; // 1 bit

    const SchedulerConfig &config_;
    const AccuracyTracker &tracker_;
    const PolicyLattice &lattice_;
    bool accuracy_dependent_;
    std::array<std::uint8_t, kMaxCores> rank_{}; ///< higher = better
};

} // namespace padc::memctrl

#endif // PADC_MEMCTRL_POLICY_HH
