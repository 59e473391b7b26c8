/**
 * @file
 * The Prefetch-Aware DRAM Controller (and its rigid baselines).
 *
 * One MemoryController drives one DRAM channel. It owns the memory
 * request buffer (reads: demands + prefetches) and a writeback queue,
 * schedules one DRAM command per DRAM command-clock cycle according to
 * the configured policy (see memctrl::SchedContext), runs the Adaptive
 * Prefetch Dropping unit, and reports completions/drops to a
 * ResponseHandler (the cache hierarchy).
 *
 * Scheduling model: each DRAM cycle the controller considers every
 * queued read whose *next* DRAM command (PRE / ACT / RD) is legal right
 * now, picks the one with the highest policy priority key, and issues
 * that single command. Requests therefore progress PRE -> ACT -> RD over
 * several cycles and can be overtaken between commands, exactly like a
 * real FR-FCFS pipeline. Writebacks are drained when the write queue
 * exceeds a high watermark or when no reads are pending.
 *
 * Scheduler implementation: the request buffer is sharded per bank with
 * incremental bookkeeping so that a scheduling round costs O(banks) (see
 * DESIGN.md, "Performance architecture"):
 *  - per-bank lists of *queued* reads, so a round never walks requests
 *    that are already in flight;
 *  - a per-bank memo of the best unblocked row-hit and row-miss
 *    candidates that folds enqueues and precharges in O(1), so only banks
 *    that lost a candidate, opened a row or had their priority inputs
 *    change are rescanned;
 *  - a candidate table that publishes each memo's two candidates with
 *    the bank-local ready cycle of their commands. A command is legal iff
 *    now has reached both that cycle and the channel-global ready cycle
 *    of the command, so a round needs no legality probe: it returns at
 *    once when no command can be legal and is otherwise a max over the
 *    table's legal keys (keys are unique, so the max is the argmax), and
 *    the next-event bound is O(1);
 *  - per-(bank,row) pending counters replacing the O(queue) same-row
 *    scan of the closed-row policy (kept only under that policy);
 *  - per-bank demand/prefetch occupancy counters and per-core criticality
 *    counters replacing the per-cycle class-mask and ranking rescans;
 *  - the accurate-core mask and the APD drop delays, recomputed only when
 *    the accuracy tracker rolls an interval (the only time PAR moves),
 *    and a lower bound on the earliest APD drop deadline, so the drop
 *    scan walks the buffer only when a drop can be due.
 * This is the only scheduler. Its oracle lives in the tests:
 * tests/memctrl/reference_controller.hh holds a naive controller that
 * recomputes every decision by walking two arrival-ordered lists and
 * shares only the policy (SchedContext, ApdUnit::shouldDrop) and the
 * channel with this one. SchedEquivalence drives both in lockstep and
 * requires the same command each cycle, the same callbacks and the
 * same stats.
 *
 * Storage: request buffer entries live in an arena (RequestPool) with
 * structure-of-arrays hot columns, so the scheduler scan reads dense
 * arrays instead of chasing list nodes. The controller also exposes a
 * next-event computation (nextEventCycle/skipTo) that lets the system
 * loop jump over cycles in which provably nothing here can change; see
 * DESIGN.md "Event-driven main loop".
 */

#ifndef PADC_MEMCTRL_CONTROLLER_HH
#define PADC_MEMCTRL_CONTROLLER_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/line_index.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/dropping.hh"
#include "memctrl/policy.hh"
#include "memctrl/request.hh"
#include "memctrl/request_pool.hh"
#include "telemetry/telemetry.hh"

namespace padc::memctrl
{

/**
 * Callback interface through which the controller reports request
 * outcomes to the cache hierarchy.
 */
class ResponseHandler
{
  public:
    virtual ~ResponseHandler() = default;

    /** A read's data transfer finished at cycle @p now. */
    virtual void dramReadComplete(const Request &req, Cycle now) = 0;

    /**
     * A prefetch read was dropped by APD (or the line was forwarded from
     * the write queue counts as complete, not dropped). The handler must
     * invalidate the corresponding MSHR entry.
     */
    virtual void dramPrefetchDropped(const Request &req, Cycle now) = 0;
};

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t demand_reads = 0;    ///< serviced demand reads
    std::uint64_t prefetch_reads = 0;  ///< serviced (still-)prefetch reads
    std::uint64_t writes = 0;          ///< serviced writebacks

    std::uint64_t read_row_hits = 0;
    std::uint64_t read_row_closed = 0;
    std::uint64_t read_row_conflicts = 0;
    std::uint64_t demand_row_hits = 0; ///< row-hit among serviced demands

    std::uint64_t prefetches_dropped = 0;       ///< removed by APD
    std::uint64_t prefetches_rejected_full = 0; ///< no buffer entry free
    std::uint64_t demands_rejected_full = 0;    ///< demand found buffer full
    std::uint64_t promotions = 0;               ///< prefetch -> demand
    std::uint64_t forwarded_reads = 0;          ///< served from write queue
    std::uint64_t duplicate_reads = 0;          ///< coalesced duplicate enqueues

    std::uint64_t read_queue_occupancy_sum = 0; ///< per-DRAM-cycle integral
    std::uint64_t dram_cycles = 0;

    /** Sum over serviced reads of (completion - arrival), for Fig. 4(a). */
    std::uint64_t read_service_cycles_sum = 0;

    /**
     * Serviced requests decomposed by RequestClass (class at service
     * time, so a promoted prefetch counts as DemandRead, matching
     * demand_reads). Indexed by RequestClass enumerator value; reserved
     * classes hold zero until a producer exists. Serialized by the
     * sweep journal; see sim/metrics.hh.
     */
    std::array<std::uint64_t, kRequestClassCount> serviced_by_class{};
};

/**
 * A single-channel DRAM controller with pluggable prefetch handling.
 */
class MemoryController
{
  public:
    /**
     * @param config scheduling/buffer policy
     * @param channel the DRAM channel this controller owns
     * @param tracker shared per-core prefetch accuracy estimates
     * @param handler completion/drop callback sink
     * @param num_cores cores in the system (for ranking)
     */
    MemoryController(const SchedulerConfig &config, dram::Channel &channel,
                     AccuracyTracker &tracker, ResponseHandler &handler,
                     std::uint32_t num_cores);

    /** True when the memory request buffer has no free read entry. */
    bool readBufferFull() const { return pool_.full(); }

    /**
     * Enqueue a read for @p line_addr.
     *
     * Prefetches are rejected when the buffer is full (the paper's
     * "prefetch not issued because the memory request buffer is full");
     * demands are likewise rejected and the cache must retry (stalling
     * the core). A read that hits the write queue is forwarded and
     * completes shortly without touching DRAM.
     *
     * A well-behaved cache never enqueues two reads for the same line
     * (the L2 MSHR allows at most one miss per line). If a duplicate
     * arrives anyway it is coalesced with the outstanding request instead
     * of corrupting the index: the call counts duplicate_reads, promotes
     * the in-flight prefetch when the duplicate is a demand, and reports
     * success.
     *
     * @return true if accepted (or forwarded, or coalesced).
     *
     * @param cls DemandRead or Prefetch (writebacks go through
     *            enqueueWrite; reserved classes have no producer yet
     *            and are rejected by assertion)
     */
    bool enqueueRead(const dram::DramCoord &coord, Addr line_addr,
                     CoreId core, Addr pc, RequestClass cls, Cycle now);

    /** Enqueue (or coalesce) a dirty-line writeback. Always accepted. */
    void enqueueWrite(const dram::DramCoord &coord, Addr line_addr,
                      CoreId core, Cycle now);

    /**
     * A demand matched the in-flight prefetch for @p line_addr: clear its
     * P bit so it is scheduled as a demand from now on. The caller is
     * responsible for the prefetch-used (PUC) accounting, since a
     * promotion can also hit a read being forwarded from the write queue
     * (which no longer sits in the request buffer).
     * @return true if a queued/in-flight prefetch was found and promoted.
     */
    bool promote(Addr line_addr, Cycle now);

    /** True if a read for @p line_addr is outstanding here. */
    bool hasRead(Addr line_addr) const
    {
        return read_index_.find(line_addr) != LineIndex::kNone;
    }

    /**
     * Advance the controller; call once per processor cycle, never with
     * a decreasing cycle. Only DRAM clock edges do work, so the common
     * call is one compare against the next edge.
     */
    void tick(Cycle now)
    {
        // An edge before next_edge_ has passed already; this also
        // rejects every call a `now % period` test would answer
        // differently.
        assert(now + channel_.timing().cpu_per_dram_cycle > next_edge_);
        if (now >= next_edge_)
            tickEdge(now);
    }

    /**
     * Earliest cycle >= @p from at which a tick() of this controller
     * could do anything a skipped tick would not: issue a command,
     * complete a read or forward, fire a refresh, or drop a prefetch.
     * Conservative (waking early is always safe; the returned cycle is
     * never later than the first such cycle). Returns kNeverCycle when
     * the controller is completely idle. Not const: it first brings the
     * per-interval accuracy inputs and the candidate table current,
     * which changes no decision.
     */
    Cycle nextEventCycle(Cycle from);

    /**
     * Account for the skipped cycles [@p from, @p to) as if tick() had
     * run in each: advances the per-DRAM-cycle stat integrals and
     * replays the APD scan schedule. @pre nextEventCycle(from) >= to,
     * i.e. the gap provably contains no observable controller event.
     */
    void skipTo(Cycle from, Cycle to);

    /**
     * The first DRAM clock edge tick() has not reached yet. Between the
     * ticks of consecutive cycles it is the first DRAM cycle at or after
     * the current one, so nextEventCycle() never returns an earlier
     * cycle, and skipTo() to it or before it changes nothing.
     */
    Cycle nextEdge() const { return next_edge_; }

    const ControllerStats &stats() const { return stats_; }

    const SchedulerConfig &config() const { return config_; }

    std::size_t readQueueSize() const { return pool_.size(); }
    std::size_t writeQueueSize() const { return write_q_.size(); }

    /** The next DRAM command a request needs, given current bank state. */
    enum class NextCmd : std::uint8_t { Precharge, Activate, Column, None };

    /**
     * Attach a request-lifecycle trace sink tagged with this
     * controller's channel id (nullptr disables tracing; the disabled
     * path is a single null test per event site). Its command events
     * are the complete scheduling decision sequence, which the
     * equivalence test compares with its reference controller's.
     */
    void setTrace(telemetry::TraceBuffer *trace, std::uint8_t channel_id)
    {
        trace_ = trace;
        trace_channel_ = channel_id;
    }

    /** The APD unit (read-only; telemetry samples its thresholds). */
    const ApdUnit &apd() const { return apd_; }

  private:
    /** Ready cycles of the three real commands, indexed by NextCmd. */
    using ReadyCycles = std::array<Cycle, 3>;

    /** Index of @p cmd in a ReadyCycles. */
    static std::size_t idx(NextCmd cmd)
    {
        return static_cast<std::size_t>(cmd);
    }

    /** What one walk of a bank's queued reads yields (DESIGN.md
        section 6.1). Keys are exact for accurate_mask_ and the ranks;
        legality is never memoized. */
    struct ScanMemo
    {
        /** Command the row-miss candidate needs: Activate when the bank
            is closed, else Precharge. */
        NextCmd miss_cmd = NextCmd::None;
        /** Best unblocked row-hit / row-miss request (RequestPool::kNone
            when there is none) and its priority key (0 when none). */
        std::uint32_t hit_slot = RequestPool::kNone;
        std::uint32_t miss_slot = RequestPool::kNone;
        std::uint64_t hit_key = 0;
        std::uint64_t miss_key = 0;
    };

    /** Scheduler shard for one DRAM bank. */
    struct BankShard
    {
        /** Pool slots of queued (not yet in-flight) reads to this bank;
            each request's bank_slot is its index here, so removal is
            O(1) swap-remove. Order carries no meaning: priority keys
            are a total order. */
        std::vector<std::uint32_t> queued;

        std::uint32_t queued_demands = 0; ///< queued demand reads

        /** Queued prefetches per core, plus the derived nonzero bitmask
            (bit c set iff pref_by_core[c] > 0). The mask makes the APS
            per-bank "has preferred request" test one AND against the
            accurate-core mask. */
        std::vector<std::uint32_t> pref_by_core;
        std::uint64_t pref_core_mask = 0;

        /** Scan memo: equal to a fresh scanBank() while memo_valid.
            Enqueues and precharges fold into it; DESIGN.md section 6.1
            lists every event that folds, keeps or clears it. */
        bool memo_valid = false;
        ScanMemo memo;
    };

    NextCmd nextCommand(const Request &req, bool *row_hit) const;
    void issueCommand(Request &req, NextCmd cmd, bool row_hit, Cycle now);

    /** tick() at or past next_edge_. */
    void tickEdge(Cycle now);

    void completeFinished(Cycle now);
    void runApd(Cycle now);
    bool scheduleRead(Cycle now);
    bool scheduleWrite(Cycle now);
    void finishRead(std::uint32_t slot, Cycle now);

    /** True when another queued request targets the same bank and row. */
    bool pendingSameRow(const Request &req) const;

    // --- incremental bookkeeping helpers ------------------------------

    /** Key of the per-(bank,row) pending-request counter map. */
    static std::uint64_t rowKey(const dram::DramCoord &coord)
    {
        // Row bits never reach bit 48 for any realistic geometry.
        return (static_cast<std::uint64_t>(coord.bank) << 48) | coord.row;
    }

    /** Recompute the accurate-core mask and the APD drop delays if the
        tracker rolled an interval since they were computed: PAR moves
        only then. A new mask clears every memo. */
    void syncInterval();

    /** True when @p shard holds a queued preferred-class request. */
    bool shardHasPreferred(const BankShard &shard,
                           std::uint64_t accurate_mask) const;

    /** Walk bank @p bank's queued reads: a max-reduction of their keys
        over the pool's hot columns. */
    ScanMemo scanBank(std::uint32_t bank) const;

    /** Rescan bank @p bank's queued reads into its memo. */
    void rebuildMemo(std::uint32_t bank);

    /** Mark bank @p bank's memo for a rescan at its next publish. */
    void clearMemo(std::uint32_t bank)
    {
        shards_[bank].memo_valid = false;
        stale_banks_ |= 1ULL << bank;
    }

    /** Fold newly queued @p slot into its bank's valid memo; the bank
        held a preferred request before it iff @p had_preferred. */
    void foldEnqueued(std::uint32_t slot, bool had_preferred);

    /** Fold a precharge of bank @p bank into its valid memo. */
    void foldPrecharge(std::uint32_t bank);

    /** Recompute cell_keys_ for accurate_mask_ and the current ranks. */
    void updateCellKeys();

    /** Clear every bank's memo (refresh, mask or rank change). */
    void invalidateMemos();

    /** Republish the candidates of every stale bank, rebuilding invalid
        memos, and recompute min_ready_. */
    void publishStale();

    /** Debug check that bank @p bank's valid memo matches a fresh
        scanBank() and its published candidates match the memo. */
    void checkMemo(std::uint32_t bank) const;

    /** Bank-local ready cycles of bank @p bank. */
    ReadyCycles localReady(std::uint32_t bank) const
    {
        return {channel_.bankReadyPrecharge(bank),
                channel_.bankReadyActivate(bank),
                channel_.bankReadyColumn(bank)};
    }

    /** Channel-global ready cycles; the column entry is for writes or
        reads as @p writes says. Together with localReady() they are
        exact: a command is legal iff now reaches both. */
    ReadyCycles globalReady(bool writes) const
    {
        return {channel_.commandBusFreeAt(),
                channel_.activateGlobalReadyAt(),
                writes ? channel_.writeColumnGlobalReadyAt()
                       : channel_.readColumnGlobalReadyAt()};
    }

    /** Register a newly queued read with all incremental structures. */
    void trackEnqueued(std::uint32_t slot);

    /** Remove a still-queued read from all incremental structures. */
    void untrackQueued(Request &req);

    /** Account a queued prefetch being promoted to a demand. */
    void trackPromoted(Request &req);

    /** Count a request joining (+1) or leaving (-1) @p coord's row in
        pending_rows_; a no-op unless the closed-row policy reads it. */
    void trackPendingRow(const dram::DramCoord &coord, int delta);

    /** Record one lifecycle event for @p req (no-op when untraced). */
    void traceRequest(telemetry::EventKind kind, const Request &req,
                      Cycle now, std::uint64_t aux = 0)
    {
        if (trace_ == nullptr)
            return;
        telemetry::TraceEvent event;
        event.cycle = now;
        event.addr = req.line_addr;
        event.aux = aux;
        event.row = req.coord.row;
        event.kind = kind;
        event.core = static_cast<std::uint8_t>(req.core);
        event.channel = trace_channel_;
        event.bank = static_cast<std::uint16_t>(req.coord.bank);
        event.cls = static_cast<std::uint8_t>(req.cls);
        event.flags = static_cast<std::uint8_t>(
            (req.isPrefetch() ? telemetry::TraceEvent::kPrefetch : 0) |
            (req.was_prefetch ? telemetry::TraceEvent::kWasPrefetch : 0) |
            (req.row_outcome == Request::RowOutcome::Hit
                 ? telemetry::TraceEvent::kRowHit
                 : 0) |
            (req.isWrite() ? telemetry::TraceEvent::kWrite : 0));
        trace_->record(event);
    }

    SchedulerConfig config_;
    dram::Channel &channel_;
    AccuracyTracker &tracker_;
    ResponseHandler &handler_;
    std::uint32_t num_cores_;

    SchedContext context_;
    ApdUnit apd_;

    /** Arena + SoA hot columns backing the memory request buffer. */
    RequestPool pool_;
    LineIndex read_index_;
    std::list<Request> write_q_;
    std::unordered_map<Addr, std::list<Request>::iterator> write_index_;

    /** Per-bank scheduler shards, sized from channel_.numBanks(). */
    std::vector<BankShard> shards_;

    /** Bit b set iff shards_[b].queued is non-empty; lets the scheduler
        scan and the next-event computation visit only occupied banks
        (banks per channel never exceed 64). */
    std::uint64_t occupied_banks_ = 0;

    /** Bank b's published candidates: [2b] its memo's row-miss
        candidate, [2b + 1] its row-hit candidate. */
    struct Candidate
    {
        std::uint64_t key = 0;      ///< priority key; 0 = no candidate
        Cycle ready = kNeverCycle;  ///< bank-local ready cycle of cmd
        std::uint32_t slot = RequestPool::kNone;
        NextCmd cmd = NextCmd::Precharge; ///< meaningless when key is 0
    };
    std::vector<Candidate> candidates_;

    /** Minimum Candidate::ready per command over candidates_. */
    ReadyCycles min_ready_{kNeverCycle, kNeverCycle, kNeverCycle};

    /** Banks whose candidates must be republished: a memo fold or
        clear, a command to the bank, a refresh, a mask or rank change. */
    std::uint64_t stale_banks_ = 0;

    /** tracker_.nextBoundary() when the accuracy inputs below were
        computed (0: never; a boundary is always >= 1). */
    Cycle interval_boundary_ = 0;

    /** Cores whose prefetches are critical this interval (0 when no key
        depends on accuracy); every valid memo was built under it. */
    std::uint64_t accurate_mask_ = 0;

    /** Per core: ApdUnit::dropDelay(), the age at which APD drops a
        queued prefetch this interval. */
    std::vector<Cycle> drop_delay_;

    /** Lower bound on the earliest drop deadline (arrival + drop delay)
        of any queued prefetch: exact after each APD walk, lowered by
        each prefetch enqueue, 0 after an interval rollover. A scan
        before it cannot drop. */
    Cycle apd_due_ = 0;

    /** Memo-scan inputs of one (core, request class) pair under
        accurate_mask_ and the current ranks: the priority-key fields the
        pair fixes, and whether it is the preferred lattice level. */
    struct CellKey
    {
        std::uint64_t high = 0;
        bool preferred = false;
    };

    /** Indexed [core * kRequestClassCount + class]. */
    std::vector<CellKey> cell_keys_;

    /** alignUp(from) memo from the last nextEventCycle() call, so the
        skipTo() that immediately follows it in the jump path does not
        repeat the division. */
    Cycle nec_from_ = kNeverCycle;
    Cycle nec_next_tick_ = 0;

    /** First DRAM clock edge tick() has not reached yet: a tick before
        it is not a DRAM cycle, so the per-cycle test is a compare. */
    Cycle next_edge_ = 0;

    /** Pool slots of in-flight (Servicing) reads, kept sorted by seq so
        same-cycle completions fire in arrival order: the cache sees that
        order, so it can change results. */
    std::vector<std::uint32_t> servicing_;

    /** Earliest data_ready among servicing_ (kNeverCycle when empty);
        min-updated at column issue, recomputed when completions remove
        entries. Feeds nextEventCycle(). */
    Cycle servicing_min_ready_ = kNeverCycle;

    /** Queued reads + pending writes per (bank,row); backs the closed-row
        policy's pendingSameRow() in O(1). Empty under the open-row
        policy, which never asks. */
    std::unordered_map<std::uint64_t, std::uint32_t> pending_rows_;

    /** Requests (any state) in the read queue per core, split by current
        P bit; critical-request counts for RANK derive from these. */
    std::array<std::uint32_t, kMaxCores> demands_per_core_{};
    std::array<std::uint32_t, kMaxCores> prefs_per_core_{};

    telemetry::TraceBuffer *trace_ = nullptr;
    std::uint8_t trace_channel_ = 0;

    /** Forwarded reads waiting to be reported complete. */
    struct PendingForward
    {
        Request req;
        Cycle ready;
    };
    std::vector<PendingForward> forwards_;

    bool write_drain_mode_ = false;
    std::uint64_t next_seq_ = 0;
    Cycle next_apd_scan_ = 0;

    ControllerStats stats_;
};

} // namespace padc::memctrl

#endif // PADC_MEMCTRL_CONTROLLER_HH
