/**
 * @file
 * The reference memory controller: a naive, independent implementation
 * of MemoryController's observable behaviour, kept as the oracle that
 * SchedEquivalence drives in lockstep with the production controller.
 *
 * It shares only the policy definition (SchedContext's priority keys,
 * lattice levels and ranks, ApdUnit::shouldDrop) and the DRAM channel
 * with production. Everything production caches -- bank shards, scan
 * memos, the candidate ready table, per-interval drop delays, the APD
 * due bound, per-row pending counters, the seq-sorted in-flight list --
 * is recomputed here every DRAM cycle by walking two lists kept in
 * arrival order, and command legality comes from Channel::can*(). So a
 * disagreement points at production's bookkeeping. The channel's timing
 * model itself is trusted, not checked.
 *
 * The class offers exactly the calls the equivalence suite makes, with
 * MemoryController's signatures.
 */

#ifndef PADC_TESTS_MEMCTRL_REFERENCE_CONTROLLER_HH
#define PADC_TESTS_MEMCTRL_REFERENCE_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/controller.hh"
#include "memctrl/dropping.hh"
#include "memctrl/policy.hh"
#include "memctrl/request.hh"
#include "telemetry/telemetry.hh"

namespace padc::memctrl::test
{

/**
 * One issued DRAM command, as the equivalence suite compares them: the
 * reference logs it, and production's trace event for it reduces to
 * it. A line has at most one queued read and one pending write, so the
 * line address and the write bit name the request.
 */
struct CommandRecord
{
    Cycle cycle;
    telemetry::EventKind kind; ///< CmdPrecharge/Activate/Read/Write
    bool is_write;
    std::uint32_t bank;
    std::uint64_t row;
    Addr line;

    bool operator==(const CommandRecord &other) const = default;
};

class ReferenceController
{
  public:
    using NextCmd = MemoryController::NextCmd;

    ReferenceController(const SchedulerConfig &config,
                        dram::Channel &channel, AccuracyTracker &tracker,
                        ResponseHandler &handler, std::uint32_t num_cores)
        : config_(config), channel_(channel), tracker_(tracker),
          handler_(handler), num_cores_(num_cores),
          context_(config_, tracker_), apd_(config_, tracker_)
    {
    }

    /**
     * A read for a line already in the buffer coalesces (a demand
     * promotes a queued or in-flight prefetch); a read for a line in the
     * write queue is forwarded and completes tCL later; otherwise the
     * read joins the buffer unless it is full.
     */
    bool
    enqueueRead(const dram::DramCoord &coord, Addr line_addr, CoreId core,
                Addr pc, RequestClass cls, Cycle now)
    {
        const bool is_prefetch = cls == RequestClass::Prefetch;
        if (const Request *existing = find(reads_, line_addr)) {
            ++stats_.duplicate_reads;
            if (cls == RequestClass::DemandRead && existing->isPrefetch())
                promote(line_addr, now);
            return true;
        }
        const bool forward = find(writes_, line_addr) != nullptr;
        if (!forward && reads_.size() >= config_.request_buffer_size) {
            if (is_prefetch)
                ++stats_.prefetches_rejected_full;
            else
                ++stats_.demands_rejected_full;
            return false;
        }
        Request req;
        req.line_addr = line_addr;
        req.coord = coord;
        req.core = core;
        req.pc = pc;
        req.cls = cls;
        req.was_prefetch = is_prefetch;
        req.arrival = now;
        req.seq = next_seq_++;
        if (forward) {
            req.state = RequestState::Done;
            req.row_outcome = Request::RowOutcome::Hit;
            const dram::TimingParams &timing = channel_.timing();
            forwards_.push_back({req, now + timing.toCpu(timing.tCL)});
            ++stats_.forwarded_reads;
        } else {
            reads_.push_back(req);
        }
        if (is_prefetch)
            tracker_.onPrefetchSent(core);
        return true;
    }

    /** A writeback joins the write queue unless its line is pending. */
    void
    enqueueWrite(const dram::DramCoord &coord, Addr line_addr, CoreId core,
                 Cycle now)
    {
        if (find(writes_, line_addr) != nullptr)
            return;
        Request req;
        req.line_addr = line_addr;
        req.coord = coord;
        req.core = core;
        req.cls = RequestClass::Writeback;
        req.arrival = now;
        req.seq = next_seq_++;
        writes_.push_back(req);
    }

    /** Clear the P bit of the buffered prefetch for @p line_addr. */
    bool
    promote(Addr line_addr, Cycle /*now*/)
    {
        Request *req = find(reads_, line_addr);
        if (req == nullptr || !req->isPrefetch())
            return false;
        req->cls = RequestClass::DemandRead;
        ++stats_.promotions;
        return true;
    }

    /** One processor cycle; only DRAM clock edges do anything. */
    void
    tick(Cycle now)
    {
        if (now % channel_.timing().cpu_per_dram_cycle != 0)
            return;
        ++stats_.dram_cycles;
        stats_.read_queue_occupancy_sum += reads_.size();

        completeFinished(now);
        if (config_.apd_enabled && now >= next_apd_scan_) {
            dropStale(now);
            next_apd_scan_ = now + config_.age_quantum;
        }
        if (channel_.refreshDue(now)) {
            if (channel_.commandBusFree(now))
                channel_.refresh(now);
            return; // no command besides a refresh while one is due
        }
        // Drain hysteresis between the two watermarks.
        if (writes_.size() >= config_.write_drain_high)
            drain_ = true;
        else if (writes_.size() <= config_.write_drain_low)
            drain_ = false;
        if (drain_) {
            if (!scheduleWrite(now))
                scheduleRead(now);
        } else if (!scheduleRead(now) && reads_.empty()) {
            scheduleWrite(now);
        }
    }

    const ControllerStats &stats() const { return stats_; }

    /** Record every issued command into @p log. */
    void setCommandLog(std::vector<CommandRecord> *log) { command_log_ = log; }

  private:
    /** Forwarded read waiting to be reported complete. */
    struct Forward
    {
        Request req;
        Cycle ready;
    };

    static Request *
    find(std::list<Request> &list, Addr line_addr)
    {
        for (Request &req : list) {
            if (req.line_addr == line_addr)
                return &req;
        }
        return nullptr;
    }

    /** Finished reads in arrival order, then due forwards in order. */
    void
    completeFinished(Cycle now)
    {
        for (auto it = reads_.begin(); it != reads_.end();) {
            if (it->state != RequestState::Servicing || it->data_ready > now) {
                ++it;
                continue;
            }
            Request &req = *it;
            req.state = RequestState::Done;
            ++stats_.serviced_by_class[static_cast<std::size_t>(req.cls)];
            if (req.isDemand()) {
                ++stats_.demand_reads;
                if (req.row_outcome == Request::RowOutcome::Hit)
                    ++stats_.demand_row_hits;
            } else {
                ++stats_.prefetch_reads;
            }
            switch (req.row_outcome) {
              case Request::RowOutcome::Hit: ++stats_.read_row_hits; break;
              case Request::RowOutcome::Closed:
                ++stats_.read_row_closed;
                break;
              case Request::RowOutcome::Conflict:
                ++stats_.read_row_conflicts;
                break;
              case Request::RowOutcome::Unknown: break;
            }
            stats_.read_service_cycles_sum += now - req.arrival;
            handler_.dramReadComplete(req, now);
            it = reads_.erase(it);
        }
        for (auto it = forwards_.begin(); it != forwards_.end();) {
            if (it->ready > now) {
                ++it;
                continue;
            }
            handler_.dramReadComplete(it->req, now);
            it = forwards_.erase(it);
        }
    }

    /** APD scan: drop every prefetch the live tracker says is stale. */
    void
    dropStale(Cycle now)
    {
        for (auto it = reads_.begin(); it != reads_.end();) {
            if (!apd_.shouldDrop(*it, now)) {
                ++it;
                continue;
            }
            it->state = RequestState::Dropped;
            ++stats_.prefetches_dropped;
            tracker_.onPrefetchDropped(it->core);
            handler_.dramPrefetchDropped(*it, now);
            it = reads_.erase(it);
        }
    }

    NextCmd
    nextCommand(const Request &req) const
    {
        const std::uint64_t open = channel_.openRow(req.coord.bank);
        if (open == req.coord.row)
            return NextCmd::Column;
        return open == dram::kNoOpenRow ? NextCmd::Activate
                                        : NextCmd::Precharge;
    }

    bool
    legal(const Request &req, NextCmd cmd, Cycle now) const
    {
        switch (cmd) {
          case NextCmd::Precharge:
            return channel_.canPrecharge(req.coord.bank, now);
          case NextCmd::Activate:
            return channel_.canActivate(req.coord.bank, now);
          case NextCmd::Column:
            return channel_.canColumn(req.coord.bank, req.isWrite(), now);
          case NextCmd::None:
            break;
        }
        return false;
    }

    /**
     * The policy over the queued reads: the legal command with the
     * largest priority key. Class blocking is strict per bank (paper
     * Section 1): a level-0 request may not be served while its bank
     * holds a queued level-1 request, even one not legal this cycle.
     */
    bool
    scheduleRead(Cycle now)
    {
        if (config_.ranking_enabled) {
            // Rule 2 ranks cores by their buffered critical requests,
            // in-flight ones included.
            std::array<std::uint32_t, kMaxCores> counts{};
            for (const Request &req : reads_) {
                if (context_.isCritical(req))
                    ++counts[req.core];
            }
            context_.updateRanks(counts, num_cores_);
        }

        std::vector<bool> bank_has_preferred(channel_.numBanks(), false);
        for (const Request &req : reads_) {
            if (req.state == RequestState::Queued &&
                context_.latticeLevel(req.cls, req.core) != 0) {
                bank_has_preferred[req.coord.bank] = true;
            }
        }

        Request *best = nullptr;
        std::uint64_t best_key = 0;
        NextCmd best_cmd = NextCmd::None;
        for (Request &req : reads_) {
            if (req.state != RequestState::Queued)
                continue;
            if (context_.latticeLevel(req.cls, req.core) == 0 &&
                bank_has_preferred[req.coord.bank]) {
                continue;
            }
            const NextCmd cmd = nextCommand(req);
            if (!legal(req, cmd, now))
                continue;
            const std::uint64_t key =
                context_.priorityKey(req, cmd == NextCmd::Column);
            if (best == nullptr || key > best_key) {
                best = &req;
                best_key = key;
                best_cmd = cmd;
            }
        }
        if (best == nullptr)
            return false;
        issue(*best, best_cmd, now);
        return true;
    }

    /** FR-FCFS over the writes: the oldest legal row hit, else the
        oldest legal write. A column retires the write. */
    bool
    scheduleWrite(Cycle now)
    {
        auto best = writes_.end();
        for (auto it = writes_.begin(); it != writes_.end(); ++it) {
            const NextCmd cmd = nextCommand(*it);
            if (!legal(*it, cmd, now))
                continue;
            if (cmd == NextCmd::Column) {
                best = it;
                break;
            }
            if (best == writes_.end())
                best = it;
        }
        if (best == writes_.end())
            return false;
        const NextCmd cmd = nextCommand(*best);
        issue(*best, cmd, now);
        if (cmd == NextCmd::Column) {
            ++stats_.writes;
            ++stats_.serviced_by_class[static_cast<std::size_t>(
                RequestClass::Writeback)];
            writes_.erase(best);
        }
        return true;
    }

    /** True when a queued read or a pending write other than @p req
        targets @p req's bank and row. */
    bool
    pendingSameRow(const Request &req) const
    {
        const auto same_row = [&req](const Request &other) {
            return &other != &req && other.coord.bank == req.coord.bank &&
                   other.coord.row == req.coord.row;
        };
        for (const Request &other : reads_) {
            if (other.state == RequestState::Queued && same_row(other))
                return true;
        }
        for (const Request &other : writes_) {
            if (same_row(other))
                return true;
        }
        return false;
    }

    void
    issue(Request &req, NextCmd cmd, Cycle now)
    {
        if (command_log_ != nullptr && cmd != NextCmd::None) {
            using telemetry::EventKind;
            const EventKind column =
                req.isWrite() ? EventKind::CmdWrite : EventKind::CmdRead;
            const EventKind kind =
                cmd == NextCmd::Precharge  ? EventKind::CmdPrecharge
                : cmd == NextCmd::Activate ? EventKind::CmdActivate
                                           : column;
            command_log_->push_back({now, kind, req.isWrite(),
                                     req.coord.bank, req.coord.row,
                                     req.line_addr});
        }
        switch (cmd) {
          case NextCmd::Precharge:
            channel_.precharge(req.coord.bank, now);
            req.row_outcome = Request::RowOutcome::Conflict;
            break;
          case NextCmd::Activate:
            channel_.activate(req.coord.bank, req.coord.row, now);
            if (req.row_outcome == Request::RowOutcome::Unknown)
                req.row_outcome = Request::RowOutcome::Closed;
            break;
          case NextCmd::Column: {
            // Closed-row policy: auto-precharge unless another request
            // still wants this row.
            const bool auto_pre = config_.row_policy == RowPolicy::Closed &&
                                  !pendingSameRow(req);
            req.data_ready = channel_.column(req.coord.bank, req.isWrite(),
                                             auto_pre, now);
            if (req.row_outcome == Request::RowOutcome::Unknown)
                req.row_outcome = Request::RowOutcome::Hit;
            req.state = RequestState::Servicing;
            break;
          }
          case NextCmd::None:
            break;
        }
    }

    SchedulerConfig config_;
    dram::Channel &channel_;
    AccuracyTracker &tracker_;
    ResponseHandler &handler_;
    std::uint32_t num_cores_;
    SchedContext context_;
    ApdUnit apd_;

    std::list<Request> reads_;  ///< read buffer (queued, in flight)
    std::list<Request> writes_; ///< write queue
    std::vector<Forward> forwards_;
    bool drain_ = false;
    Cycle next_apd_scan_ = 0;
    std::uint64_t next_seq_ = 0;
    ControllerStats stats_;

    std::vector<CommandRecord> *command_log_ = nullptr;
};

} // namespace padc::memctrl::test

#endif // PADC_TESTS_MEMCTRL_REFERENCE_CONTROLLER_HH
