/**
 * @file
 * OoO-lite processing core model.
 *
 * The core is trace-driven and models the properties that matter for
 * memory-system studies (and that the paper's own Figure 2 abstraction
 * relies on): a fixed-size instruction window, wide retire, overlapping
 * cache misses bounded by the load/store queue and the L2 MSHRs, and
 * retirement stalls when an incomplete load reaches the window head.
 * Fetch/decode/branch effects are not modelled.
 *
 * Optional runahead execution (paper Section 6.14): when a load that
 * missed the L2 blocks the window head, the core keeps consuming its
 * trace, issuing future loads as runahead requests (treated as demands
 * by the memory system, "only-train" for the prefetcher) and replays the
 * consumed operations after the blocking miss returns.
 */

#ifndef PADC_CORE_CORE_HH
#define PADC_CORE_CORE_HH

#include <cstdint>
#include <deque>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "core/trace.hh"

namespace padc::core
{

/** Core configuration (paper Table 3 values by default). */
struct CoreConfig
{
    std::uint32_t window_size = 256; ///< instruction window (ROB) entries
    std::uint32_t retire_width = 4;  ///< instructions retired per cycle
    std::uint32_t fetch_width = 4;   ///< instructions fetched per cycle
    std::uint32_t lsq_size = 32;     ///< in-flight memory ops
    std::uint32_t mem_issue_width = 2; ///< memory ops issued per cycle

    bool runahead = false; ///< runahead execution (Section 6.14)
    std::uint32_t runahead_max_ops = 256; ///< trace ops consumed per episode

    /** Append one diagnostic per violated constraint under @p prefix. */
    void validate(ConfigErrors &errors, const std::string &prefix) const;
};

/** CoreConfig's field table; see common/fields.hh. */
template <fields::Of<CoreConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("window_size", s.window_size);
    v("retire_width", s.retire_width);
    v("fetch_width", s.fetch_width);
    v("lsq_size", s.lsq_size);
    v("mem_issue_width", s.mem_issue_width);
    v("runahead", s.runahead);
    v("runahead_max_ops", s.runahead_max_ops);
}
static_assert(fields::complete<CoreConfig>());

/** Outcome classes returned by the memory port. */
enum class AccessStatus : std::uint8_t
{
    Complete, ///< hit somewhere; data ready at AccessReply::ready
    Pending,  ///< L2 miss in flight; completeLoad() will be called
    Retry,    ///< resources exhausted (MSHR / request buffer); retry
};

/** Reply to a core memory access. */
struct AccessReply
{
    AccessStatus status = AccessStatus::Complete;
    Cycle ready = 0; ///< valid when status == Complete

    /**
     * Retry only: the access bounced off a full L2 MSHR file, so every
     * retry bounces the same way until that file releases an entry,
     * and the memory port wakes the core (Core::unpark) when it does.
     */
    bool park = false;
};

/**
 * Interface through which cores reach the memory hierarchy
 * (implemented by sim::System).
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Perform a memory access for @p core.
     *
     * @param token_tag core-private identifier passed back through
     *        completeLoad() when status is Pending
     * @param runahead the access is speculative runahead work: it must
     *        be treated as a demand by the DRAM scheduler but must not
     *        allocate new prefetcher pattern entries
     */
    virtual AccessReply access(CoreId core, Addr addr, Addr pc,
                               bool is_load, std::uint64_t token_tag,
                               bool runahead, Cycle now) = 0;
};

/** Retirement/stall statistics for one core. */
struct CoreStats
{
    std::uint64_t instructions = 0; ///< retired instructions
    std::uint64_t loads = 0;        ///< retired loads
    std::uint64_t stores = 0;       ///< retired stores
    std::uint64_t load_stall_cycles = 0; ///< cycles head-blocked by a load
                                         ///< (SPL numerator)
    std::uint64_t mem_ops_issued = 0;
    std::uint64_t issue_retries = 0; ///< accesses bounced by full resources
    std::uint64_t runahead_episodes = 0;
    std::uint64_t runahead_ops_issued = 0;
};

/**
 * The core model; see file comment.
 */
class Core
{
  public:
    Core(CoreId id, const CoreConfig &config, TraceSource &trace,
         MemoryPort &port);

    /** Advance one processor cycle: retire, fetch, issue. */
    void tick(Cycle now);

    /**
     * Earliest cycle >= @p from at which a tick() of this core could do
     * anything accountIdleCycles() and the memory port do not reproduce
     * for skipped cycles: the head-load stall counter, a parked issue
     * stage's bounce, and a steady compute stretch.
     *
     * A stretch cycle retires retire_width compute instructions from
     * the head block and fetches as many of the current op's compute
     * instructions into the back block, with the window occupancy
     * unchanged and the issue stage idle; the stretch ends before the
     * head block empties, the op's compute runs out, or the retired
     * count reaches @p retire_goal (a goal at or below the count bounds
     * nothing), so the tick that crosses the goal is a real one.
     *
     * Otherwise: @p from when any pipeline stage can act this cycle,
     * the head load's known completion time when the core is fully
     * stalled on it, or kNeverCycle when only a completeLoad() or an
     * unpark() from the memory system can wake it (whose timing the
     * controller's own next-event computation bounds).
     */
    Cycle nextEventCycle(Cycle from, std::uint64_t retire_goal) const;

    /**
     * Replay @p cycles skipped cycles in closed form: the retirement
     * and fetch of a compute stretch, or the per-cycle head-load stall
     * increment; and, while the issue stage is parked, the retry count
     * of the bounce each skipped tick would have made. @pre
     * nextEventCycle() covered every skipped cycle, so the stretch or
     * the stall held throughout; a span may be replayed in pieces.
     */
    void accountIdleCycles(std::uint64_t cycles);

    /** Completion callback for Pending accesses. */
    void completeLoad(std::uint64_t tag, Cycle now);

    /**
     * True while the issue stage's last attempt bounced with a parked
     * reply (AccessReply::park) and nothing has woken it since.
     */
    bool issueParked() const { return issue_parked_; }

    /** The bounce behind a park can now resolve: retry for real. */
    void unpark() { issue_parked_ = false; }

    CoreId id() const { return id_; }

    const CoreStats &stats() const { return stats_; }

    /** True while a runahead episode is active. */
    bool inRunahead() const { return runahead_active_; }

  private:
    /** One window entry: a compute block or a single memory op. */
    struct RobEntry
    {
        bool is_mem = false;
        std::uint32_t compute_left = 0; ///< for compute blocks

        // Memory-op fields:
        bool is_load = true;
        bool dependent = false; ///< must wait for older memory ops
        Addr addr = 0;
        Addr pc = 0;
        std::uint64_t tag = 0;
        bool issued = false;
        bool complete = false;
        bool pending_miss = false; ///< access went to DRAM (L2 miss)
        Cycle ready = kNeverCycle; ///< completion time when known
    };

    /** Ops consumed from the trace during runahead, for replay. */
    void retire(Cycle now);
    void fetch(Cycle now);
    void issue(Cycle now);
    void runaheadStep(Cycle now);

    /** issue() would attempt an access this cycle (a parked bounce does
        not count; see issueParked()). */
    bool issueCanAct() const;

    /** Stretch cycles nextEventCycle() may skip; see there. @pre the
        head is a compute block and no runahead episode is active. */
    std::uint64_t stretchCycles(std::uint64_t retire_goal) const;

    TraceOp nextOp();

    CoreId id_;
    CoreConfig config_;
    TraceSource &trace_;
    MemoryPort &port_;

    std::deque<RobEntry> rob_;
    std::uint32_t instrs_in_window_ = 0;
    std::uint32_t mem_ops_in_flight_ = 0; ///< issued, not complete (LSQ)

    /** Mem entries fetched but not yet successfully issued. */
    std::deque<RobEntry *> issue_q_;

    /** The front of issue_q_ bounced with a parked reply; see
        issueParked(). */
    bool issue_parked_ = false;

    /**
     * Pending-miss lookup for completeLoad(), keyed by tag. At most
     * lsq_size (plus runahead) entries are ever in flight, so a flat
     * vector with a linear scan beats a hash table here.
     */
    std::vector<std::pair<std::uint64_t, RobEntry *>> pending_;

    std::uint64_t next_tag_ = 1;

    // Fetch state: the trace op currently being brought into the window.
    bool have_current_op_ = false;
    TraceOp current_op_;
    std::uint32_t compute_left_ = 0; ///< compute instrs left to fetch

    // Runahead state.
    bool runahead_active_ = false;
    std::uint64_t runahead_blocking_tag_ = 0;
    std::uint32_t runahead_ops_this_episode_ = 0;
    std::uint32_t runahead_in_flight_ = 0;
    std::deque<TraceOp> replay_q_; ///< ops to replay after runahead exit
    std::size_t ra_pos_ = 0;       ///< runahead scan position in replay_q_
    bool ra_have_op_ = false;
    TraceOp ra_op_;
    std::uint32_t ra_compute_left_ = 0;
    std::unordered_set<std::uint64_t> runahead_tags_;

    CoreStats stats_;
};

} // namespace padc::core

#endif // PADC_CORE_CORE_HH
