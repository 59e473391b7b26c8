#include "memctrl/controller.hh"

#include <algorithm>
#include <cassert>

namespace padc::memctrl
{

MemoryController::MemoryController(const SchedulerConfig &config,
                                   dram::Channel &channel,
                                   AccuracyTracker &tracker,
                                   ResponseHandler &handler,
                                   std::uint32_t num_cores)
    : config_(config), channel_(channel), tracker_(tracker),
      handler_(handler), num_cores_(num_cores),
      context_(config_, tracker_), apd_(config_, tracker_),
      pool_(config_.request_buffer_size),
      read_index_(config_.request_buffer_size)
{
    assert(num_cores_ <= kMaxCores);
    assert(channel_.numBanks() <= 64); // occupied_banks_ is one word
    shards_.resize(channel_.numBanks());
    for (auto &shard : shards_)
        shard.pref_by_core.assign(num_cores_, 0);
    candidates_.resize(2 * shards_.size());
    drop_delay_.resize(num_cores_);
    cell_keys_.resize(num_cores_ * kRequestClassCount);
    updateCellKeys();
    syncInterval();
}

// --- incremental bookkeeping ------------------------------------------

void
MemoryController::trackEnqueued(std::uint32_t slot)
{
    Request &req = pool_.at(slot);
    assert(req.core < num_cores_);
    BankShard &shard = shards_[req.coord.bank];
    const bool had_preferred =
        shard.memo_valid && shardHasPreferred(shard, accurate_mask_);
    req.bank_slot = static_cast<std::uint32_t>(shard.queued.size());
    shard.queued.push_back(slot);
    switch (req.cls) {
      case RequestClass::Prefetch:
        if (shard.pref_by_core[req.core]++ == 0)
            shard.pref_core_mask |= 1ULL << req.core;
        ++prefs_per_core_[req.core];
        // The arrival may be the next prefetch to fall due. A delay from
        // before an unsynced interval rollover is harmless: syncing the
        // rollover resets apd_due_ before any scan reads it.
        apd_due_ = std::min(apd_due_, req.arrival + drop_delay_[req.core]);
        break;
      case RequestClass::DemandRead:
        ++shard.queued_demands;
        ++demands_per_core_[req.core];
        break;
      case RequestClass::Writeback:
      case RequestClass::PtwRead:
      case RequestClass::DramCacheFill:
        // Reserved classes have no read-path producer yet; when one
        // lands it must pick (or add) shard counters here.
        assert(false && "unsupported class in the read buffer");
        break;
    }
    trackPendingRow(req.coord, +1);
    if (shard.memo_valid)
        foldEnqueued(slot, had_preferred);
    else
        stale_banks_ |= 1ULL << req.coord.bank;
    occupied_banks_ |= 1ULL << req.coord.bank;
}

void
MemoryController::untrackQueued(Request &req)
{
    assert(req.state == RequestState::Queued);
    BankShard &shard = shards_[req.coord.bank];
    const std::uint32_t moved = shard.queued.back();
    shard.queued[req.bank_slot] = moved;
    pool_.at(moved).bank_slot = req.bank_slot;
    shard.queued.pop_back();
    if (shard.queued.empty())
        occupied_banks_ &= ~(1ULL << req.coord.bank);
    switch (req.cls) {
      case RequestClass::Prefetch:
        if (--shard.pref_by_core[req.core] == 0)
            shard.pref_core_mask &= ~(1ULL << req.core);
        break;
      case RequestClass::DemandRead:
        --shard.queued_demands;
        break;
      case RequestClass::Writeback:
      case RequestClass::PtwRead:
      case RequestClass::DramCacheFill:
        assert(false && "unsupported class in the read buffer");
        break;
    }
    trackPendingRow(req.coord, -1);
    // Only a candidate's departure changes the memo. The last preferred
    // request of a bank is always a candidate, so this also catches the
    // departure that unblocks the bank's level-0 requests.
    const std::uint32_t slot = pool_.slotOf(req);
    if (slot == shard.memo.hit_slot || slot == shard.memo.miss_slot)
        clearMemo(req.coord.bank);
    // So an emptied bank is always stale: its publish clears its
    // candidates.
    assert(!shard.queued.empty() || !shard.memo_valid);
}

void
MemoryController::trackPromoted(Request &req)
{
    assert(req.isPrefetch());
    --prefs_per_core_[req.core];
    ++demands_per_core_[req.core];
    if (req.state == RequestState::Queued) {
        BankShard &shard = shards_[req.coord.bank];
        if (--shard.pref_by_core[req.core] == 0)
            shard.pref_core_mask &= ~(1ULL << req.core);
        ++shard.queued_demands;
        clearMemo(req.coord.bank); // new class: new key, maybe unblocked
    }
}

void
MemoryController::trackPendingRow(const dram::DramCoord &coord, int delta)
{
    assert(delta == 1 || delta == -1);
    if (config_.row_policy != RowPolicy::Closed)
        return;
    if (delta > 0) {
        ++pending_rows_[rowKey(coord)];
        return;
    }
    auto it = pending_rows_.find(rowKey(coord));
    if (--it->second == 0)
        pending_rows_.erase(it);
}

void
MemoryController::syncInterval()
{
    const Cycle boundary = tracker_.nextBoundary();
    if (boundary == interval_boundary_)
        return;
    interval_boundary_ = boundary;
    const bool masked =
        context_.latticeAccuracyDependent() || config_.ranking_enabled;
    std::uint64_t mask = 0;
    for (std::uint32_t c = 0; c < num_cores_; ++c) {
        if (masked && context_.coreAccurate(c))
            mask |= 1ULL << c;
        drop_delay_[c] = apd_.dropDelay(c);
    }
    apd_due_ = 0; // thresholds may have fallen
    // Memo keys and class blocking embed the mask.
    if (mask != accurate_mask_) {
        accurate_mask_ = mask;
        updateCellKeys();
        invalidateMemos();
    }
}

bool
MemoryController::shardHasPreferred(const BankShard &shard,
                                    std::uint64_t accurate_mask) const
{
    return context_.shardHasPreferred(shard.queued_demands,
                                      shard.pref_core_mask, accurate_mask);
}

// --- queue admission --------------------------------------------------

bool
MemoryController::enqueueRead(const dram::DramCoord &coord, Addr line_addr,
                              CoreId core, Addr pc, RequestClass cls,
                              Cycle now)
{
    assert(cls == RequestClass::DemandRead ||
           cls == RequestClass::Prefetch);
    const bool is_prefetch = cls == RequestClass::Prefetch;
    // Duplicate of an outstanding read: coalesce with it instead of
    // corrupting read_index_ (formerly an assert, i.e. silent corruption
    // in NDEBUG builds). A demand duplicate promotes the in-flight
    // prefetch, mirroring what the L2 does on a demand match.
    const std::uint32_t existing_slot = read_index_.find(line_addr);
    if (existing_slot != LineIndex::kNone) {
        const Request &existing = pool_.at(existing_slot);
        ++stats_.duplicate_reads;
        traceRequest(telemetry::EventKind::Coalesce, existing, now);
        if (cls == RequestClass::DemandRead && existing.isPrefetch())
            promote(line_addr, now);
        return true;
    }

    // Forward from the write queue: the newest data for this line is
    // sitting in the controller, so no DRAM access is needed. The index
    // is empty exactly when the queue is, so the common empty-queue case
    // skips the hash probe.
    if (!write_q_.empty() &&
        write_index_.find(line_addr) != write_index_.end()) {
        Request req;
        req.line_addr = line_addr;
        req.coord = coord;
        req.core = core;
        req.pc = pc;
        req.cls = cls;
        req.was_prefetch = is_prefetch;
        req.arrival = now;
        req.seq = next_seq_++;
        req.state = RequestState::Done;
        req.row_outcome = Request::RowOutcome::Hit;
        const Cycle ready =
            now + channel_.timing().toCpu(channel_.timing().tCL);
        forwards_.push_back({req, ready});
        ++stats_.forwarded_reads;
        traceRequest(telemetry::EventKind::Forward, req, now);
        if (is_prefetch)
            tracker_.onPrefetchSent(core);
        return true;
    }

    if (readBufferFull()) {
        if (is_prefetch)
            ++stats_.prefetches_rejected_full;
        else
            ++stats_.demands_rejected_full;
        if (trace_ != nullptr) {
            Request rejected;
            rejected.line_addr = line_addr;
            rejected.coord = coord;
            rejected.core = core;
            rejected.cls = cls;
            rejected.was_prefetch = is_prefetch;
            traceRequest(telemetry::EventKind::RejectFull, rejected, now);
        }
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
    const std::uint32_t slot = pool_.allocate();
    pool_.at(slot) = req; // full overwrite: recycled slots hold stale data
    pool_.syncHot(slot);
    read_index_.insert(line_addr, slot);
    trackEnqueued(slot);
    traceRequest(telemetry::EventKind::Enqueue, pool_.at(slot), now);
    if (is_prefetch)
        tracker_.onPrefetchSent(core);
    return true;
}

void
MemoryController::enqueueWrite(const dram::DramCoord &coord, Addr line_addr,
                               CoreId core, Cycle now)
{
    if (write_index_.find(line_addr) != write_index_.end())
        return; // coalesce with the pending write of the same line

    Request req;
    req.line_addr = line_addr;
    req.coord = coord;
    req.core = core;
    req.cls = RequestClass::Writeback;
    req.arrival = now;
    req.seq = next_seq_++;
    write_q_.push_back(req);
    write_index_[line_addr] = std::prev(write_q_.end());
    trackPendingRow(coord, +1);
    traceRequest(telemetry::EventKind::EnqueueWrite, write_q_.back(), now);
}

bool
MemoryController::promote(Addr line_addr, Cycle now)
{
    const std::uint32_t slot = read_index_.find(line_addr);
    if (slot == LineIndex::kNone)
        return false;
    Request &req = pool_.at(slot);
    if (!req.isPrefetch())
        return false;
    trackPromoted(req);
    req.cls = RequestClass::DemandRead;
    pool_.syncHot(slot); // the class column feeds the scheduler
    ++stats_.promotions;
    traceRequest(telemetry::EventKind::Promote, req, now);
    return true;
}

// --- command selection ------------------------------------------------

MemoryController::NextCmd
MemoryController::nextCommand(const Request &req, bool *row_hit) const
{
    const std::uint64_t open = channel_.openRow(req.coord.bank);
    if (open == req.coord.row) {
        *row_hit = true;
        return NextCmd::Column;
    }
    *row_hit = false;
    return open == dram::kNoOpenRow ? NextCmd::Activate : NextCmd::Precharge;
}

bool
MemoryController::pendingSameRow(const Request &req) const
{
    // req itself is counted (a queued read or a pending write), so
    // another request targets the same (bank,row) iff the counter
    // exceeds one.
    auto it = pending_rows_.find(rowKey(req.coord));
    return it != pending_rows_.end() && it->second > 1;
}

void
MemoryController::issueCommand(Request &req, NextCmd cmd, bool row_hit,
                               Cycle now)
{
    bool auto_pre = false;
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
        auto_pre = config_.row_policy == RowPolicy::Closed &&
                   !pendingSameRow(req);
        req.data_ready =
            channel_.column(req.coord.bank, req.isWrite(), auto_pre, now);
        if (req.row_outcome == Request::RowOutcome::Unknown) {
            req.row_outcome = row_hit ? Request::RowOutcome::Hit
                                      : Request::RowOutcome::Conflict;
        }
        if (!req.isWrite()) {
            // Queued -> Servicing: the read leaves its bank shard and
            // joins the (seq-sorted) in-flight set.
            untrackQueued(req);
            const std::uint32_t slot = pool_.slotOf(req);
            servicing_.insert(
                std::lower_bound(servicing_.begin(), servicing_.end(), slot,
                                 [this](std::uint32_t a, std::uint32_t b) {
                                     return pool_.seqOf(a) < pool_.seqOf(b);
                                 }),
                slot);
            servicing_min_ready_ =
                std::min(servicing_min_ready_, req.data_ready);
        }
        req.state = RequestState::Servicing;
        break;
      }
      case NextCmd::None:
        break;
    }
    if (trace_ != nullptr && cmd != NextCmd::None) {
        telemetry::EventKind kind = req.isWrite()
                                        ? telemetry::EventKind::CmdWrite
                                        : telemetry::EventKind::CmdRead;
        if (cmd == NextCmd::Precharge)
            kind = telemetry::EventKind::CmdPrecharge;
        else if (cmd == NextCmd::Activate)
            kind = telemetry::EventKind::CmdActivate;
        traceRequest(kind, req, now);
    }
    // The command moved this bank's ready cycles: republish its
    // candidates. Its scan memo folds a precharge and survives a column
    // that leaves the row open (a read's own departure is
    // untrackQueued's business); an activate or an auto-precharge
    // changes the open row: rescan.
    stale_banks_ |= 1ULL << req.coord.bank;
    if (cmd == NextCmd::Precharge)
        foldPrecharge(req.coord.bank);
    else if (cmd != NextCmd::Column || auto_pre)
        shards_[req.coord.bank].memo_valid = false;
}

void
MemoryController::finishRead(std::uint32_t slot, Cycle now)
{
    Request &req = pool_.at(slot);
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
      case Request::RowOutcome::Closed: ++stats_.read_row_closed; break;
      case Request::RowOutcome::Conflict:
        ++stats_.read_row_conflicts;
        break;
      case Request::RowOutcome::Unknown: break;
    }
    stats_.read_service_cycles_sum += now - req.arrival;
    traceRequest(telemetry::EventKind::Complete, req, now, req.arrival);

    if (req.isPrefetch())
        --prefs_per_core_[req.core];
    else
        --demands_per_core_[req.core];

    handler_.dramReadComplete(req, now);
    read_index_.erase(req.line_addr);
    pool_.release(slot);
}

void
MemoryController::completeFinished(Cycle now)
{
    bool removed = false;
    if (servicing_min_ready_ <= now) {
        // servicing_ is seq-sorted, so same-cycle completions are
        // reported in arrival (seq) order.
        for (std::size_t i = 0; i < servicing_.size();) {
            const std::uint32_t slot = servicing_[i];
            if (pool_.at(slot).data_ready <= now) {
                servicing_.erase(servicing_.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                finishRead(slot, now);
                removed = true;
            } else {
                ++i;
            }
        }
    }
    if (removed) {
        servicing_min_ready_ = kNeverCycle;
        for (const std::uint32_t slot : servicing_) {
            servicing_min_ready_ =
                std::min(servicing_min_ready_, pool_.at(slot).data_ready);
        }
    }
    for (auto it = forwards_.begin(); it != forwards_.end();) {
        if (it->ready <= now) {
            traceRequest(telemetry::EventKind::Complete, it->req, now,
                         it->req.arrival);
            handler_.dramReadComplete(it->req, now);
            it = forwards_.erase(it);
        } else {
            ++it;
        }
    }
}

void
MemoryController::runApd(Cycle now)
{
    if (now < apd_due_)
        return; // no queued prefetch is due yet
    // The walk recomputes apd_due_ over the prefetches it keeps.
    apd_due_ = kNeverCycle;
    for (std::uint32_t slot = pool_.head(); slot != RequestPool::kNone;) {
        const std::uint32_t next = pool_.next(slot);
        Request &req = pool_.at(slot);
        // ApdUnit::shouldDrop with this interval's cached drop delay.
        if (pool_.classOf(slot) != RequestClass::Prefetch ||
            req.state != RequestState::Queued) {
            slot = next;
            continue;
        }
        const Cycle delay = drop_delay_[req.core];
        if (req.ageCycles(now) < delay) {
            apd_due_ = std::min(apd_due_, req.arrival + delay);
        } else {
            untrackQueued(req);
            --prefs_per_core_[req.core];
            req.state = RequestState::Dropped;
            ++stats_.prefetches_dropped;
            traceRequest(telemetry::EventKind::Drop, req, now, req.arrival);
            tracker_.onPrefetchDropped(req.core);
            handler_.dramPrefetchDropped(req, now);
            read_index_.erase(req.line_addr);
            pool_.release(slot);
        }
        slot = next;
    }
}

// --- scheduling -------------------------------------------------------

void
MemoryController::invalidateMemos()
{
    for (BankShard &shard : shards_)
        shard.memo_valid = false;
    // An empty bank already published no candidates.
    stale_banks_ |= occupied_banks_;
}

void
MemoryController::updateCellKeys()
{
    for (CoreId core = 0; core < num_cores_; ++core) {
        const bool accurate = ((accurate_mask_ >> core) & 1) != 0;
        for (std::size_t c = 0; c < kRequestClassCount; ++c) {
            const LatticeSlot cell =
                context_.latticeSlot(static_cast<RequestClass>(c), accurate);
            cell_keys_[core * kRequestClassCount + c] = {
                context_.keyHigh(cell, core), cell.level != 0};
        }
    }
}

MemoryController::ScanMemo
MemoryController::scanBank(std::uint32_t bank) const
{
    const BankShard &shard = shards_[bank];
    const bool has_preferred = shardHasPreferred(shard, accurate_mask_);
    // Every request to this bank needs one of at most two commands:
    // Column for the open row and Precharge for any other, or Activate
    // when the bank is closed. The scan reads only the pool's hot
    // columns and the per-(core, class) key table. A class-blocked
    // request keys 0, which no real key equals (its inverted-arrival
    // field is never 0), so it never wins; keys are unique, so the best
    // key names the best slot.
    const std::uint64_t open = channel_.openRow(bank);
    const NextCmd miss_cmd =
        open == dram::kNoOpenRow ? NextCmd::Activate : NextCmd::Precharge;
    std::uint32_t best_slot[2] = {RequestPool::kNone, RequestPool::kNone};
    std::uint64_t best_key[2] = {0, 0}; // [0] row miss, [1] row hit
    for (const std::uint32_t slot : shard.queued) {
        const CellKey &cell =
            cell_keys_[pool_.coreOf(slot) * kRequestClassCount +
                       static_cast<std::size_t>(pool_.classOf(slot))];
        const bool row_hit = pool_.rowOf(slot) == open;
        const bool blocked = has_preferred && !cell.preferred;
        const std::uint64_t key =
            (cell.high | SchedContext::rowHitBits(row_hit) |
             SchedContext::arrivalBits(pool_.seqOf(slot))) &
            (std::uint64_t{blocked} - 1);
        const bool better = key > best_key[row_hit];
        best_key[row_hit] = better ? key : best_key[row_hit];
        best_slot[row_hit] = better ? slot : best_slot[row_hit];
    }
    ScanMemo memo;
    memo.miss_cmd = miss_cmd;
    memo.miss_slot = best_slot[0];
    memo.miss_key = best_key[0];
    memo.hit_slot = best_slot[1];
    memo.hit_key = best_key[1];
    return memo;
}

void
MemoryController::rebuildMemo(std::uint32_t bank)
{
    BankShard &shard = shards_[bank];
    shard.memo = scanBank(bank);
    shard.memo_valid = true;
}

void
MemoryController::foldEnqueued(std::uint32_t slot, bool had_preferred)
{
    const std::uint32_t bank = pool_.at(slot).coord.bank;
    BankShard &shard = shards_[bank];
    ScanMemo &memo = shard.memo;
    // An arrival that gives the bank its first preferred request blocks
    // every level-0 request already queued there: rescan.
    const bool has_preferred = shardHasPreferred(shard, accurate_mask_);
    if (has_preferred != had_preferred) {
        clearMemo(bank);
        return;
    }
    const CellKey &cell =
        cell_keys_[pool_.coreOf(slot) * kRequestClassCount +
                   static_cast<std::size_t>(pool_.classOf(slot))];
    if (has_preferred && !cell.preferred)
        return; // class-blocked: never a candidate
    const bool row_hit = pool_.rowOf(slot) == channel_.openRow(bank);
    const std::uint64_t key = cell.high | SchedContext::rowHitBits(row_hit) |
                              SchedContext::arrivalBits(pool_.seqOf(slot));
    std::uint32_t &best_slot = row_hit ? memo.hit_slot : memo.miss_slot;
    std::uint64_t &best_key = row_hit ? memo.hit_key : memo.miss_key;
    if (key > best_key) {
        best_slot = slot;
        best_key = key;
        stale_banks_ |= 1ULL << bank;
    }
}

void
MemoryController::foldPrecharge(std::uint32_t bank)
{
    BankShard &shard = shards_[bank];
    if (!shard.memo_valid)
        return;
    // The bank is closed now, so every queued request needs an Activate
    // and keys without the row-hit bit. That bit is common to all
    // former row hits, so the best of them stays their best; the
    // better of it and the old row-miss candidate is the new one.
    ScanMemo &memo = shard.memo;
    const std::uint64_t hit_key =
        memo.hit_key & ~SchedContext::rowHitBits(true);
    if (hit_key > memo.miss_key) {
        memo.miss_slot = memo.hit_slot;
        memo.miss_key = hit_key;
    }
    memo.hit_slot = RequestPool::kNone;
    memo.hit_key = 0;
    memo.miss_cmd = NextCmd::Activate;
}

void
MemoryController::publishStale()
{
    if (stale_banks_ == 0)
        return;
    for (std::uint64_t mask = stale_banks_; mask != 0; mask &= mask - 1) {
        const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
        BankShard &shard = shards_[b];
        Candidate &miss = candidates_[2 * b];
        Candidate &hit = candidates_[2 * b + 1];
        if (shard.queued.empty()) {
            miss = {};
            hit = {};
            continue;
        }
        if (!shard.memo_valid)
            rebuildMemo(b);
        const ScanMemo &memo = shard.memo;
        const ReadyCycles local = localReady(b);
        miss = {memo.miss_key,
                memo.miss_key != 0 ? local[idx(memo.miss_cmd)] : kNeverCycle,
                memo.miss_slot, memo.miss_cmd};
        hit = {memo.hit_key,
               memo.hit_key != 0 ? local[idx(NextCmd::Column)] : kNeverCycle,
               memo.hit_slot, NextCmd::Column};
    }
    stale_banks_ = 0;
    min_ready_.fill(kNeverCycle);
    for (const Candidate &cand : candidates_) {
        Cycle &min = min_ready_[idx(cand.cmd)];
        min = std::min(min, cand.ready);
    }
}

void
MemoryController::checkMemo(std::uint32_t bank) const
{
#ifndef NDEBUG
    // The folds must leave exactly what a rescan would find, and the
    // published candidates must be the memo's, with their commands'
    // current bank-local ready cycles.
    const ScanMemo &memo = shards_[bank].memo;
    const ScanMemo fresh = scanBank(bank);
    assert(memo.miss_cmd == fresh.miss_cmd);
    assert(memo.hit_slot == fresh.hit_slot);
    assert(memo.hit_key == fresh.hit_key);
    assert(memo.miss_slot == fresh.miss_slot);
    assert(memo.miss_key == fresh.miss_key);
    const Candidate &miss = candidates_[2 * bank];
    const Candidate &hit = candidates_[2 * bank + 1];
    const ReadyCycles local = localReady(bank);
    assert(miss.key == memo.miss_key && miss.slot == memo.miss_slot);
    assert(hit.key == memo.hit_key && hit.slot == memo.hit_slot);
    assert(miss.key == 0 || (miss.cmd == memo.miss_cmd &&
                             miss.ready == local[idx(memo.miss_cmd)]));
    assert(hit.key == 0 || hit.ready == local[idx(NextCmd::Column)]);
#else
    (void)bank;
#endif
}

bool
MemoryController::scheduleRead(Cycle now)
{
    // Memo keys embed the ranks (and the mask, kept by syncInterval).
    if (config_.ranking_enabled) {
        std::array<std::uint32_t, kMaxCores> counts{};
        for (std::uint32_t c = 0; c < num_cores_; ++c) {
            counts[c] = demands_per_core_[c];
            if ((accurate_mask_ >> c) & 1)
                counts[c] += prefs_per_core_[c];
        }
        if (context_.updateRanks(counts, num_cores_)) {
            updateCellKeys();
            invalidateMemos();
        }
    }
    publishStale();
#ifndef NDEBUG
    for (std::uint64_t mask = occupied_banks_; mask != 0; mask &= mask - 1)
        checkMemo(static_cast<std::uint32_t>(__builtin_ctzll(mask)));
#endif

    // A candidate's command is legal iff now has reached both its
    // bank-local ready cycle (in the table) and the channel-global one.
    const ReadyCycles global = globalReady(false);
    bool any_legal = false;
    for (std::size_t c = 0; c < global.size(); ++c)
        any_legal |= std::max(min_ready_[c], global[c]) <= now;
    if (!any_legal)
        return false;
    // Illegal and empty entries key 0 and keys are unique, so the max
    // is the best legal candidate.
    std::size_t best = 0;
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const Candidate &cand = candidates_[i];
        const std::uint64_t key =
            std::max(cand.ready, global[idx(cand.cmd)]) <= now ? cand.key
                                                                : 0;
        best = key > best_key ? i : best;
        best_key = std::max(best_key, key);
    }
    assert(best_key != 0);
    const Candidate chosen = candidates_[best];
    issueCommand(pool_.at(chosen.slot), chosen.cmd,
                 chosen.cmd == NextCmd::Column, now);
    return true;
}

bool
MemoryController::scheduleWrite(Cycle now)
{
    // Writes are scheduled FR-FCFS among themselves (row-hit first,
    // then oldest); prefetch-awareness does not apply to writebacks.
    std::list<Request>::iterator best = write_q_.end();
    std::uint64_t best_key = 0;
    NextCmd best_cmd = NextCmd::None;

    const ReadyCycles global = globalReady(true);
    for (auto it = write_q_.begin(); it != write_q_.end(); ++it) {
        bool row_hit = false;
        const NextCmd cmd = nextCommand(*it, &row_hit);
        if (std::max(localReady(it->coord.bank)[idx(cmd)],
                     global[idx(cmd)]) > now)
            continue;
        const std::uint64_t key =
            ((row_hit ? 1ULL : 0ULL) << 63) | (~it->seq & 0x7FFFFFFFFFFFFFFF);
        if (best == write_q_.end() || key > best_key) {
            best = it;
            best_key = key;
            best_cmd = cmd;
        }
    }
    if (best == write_q_.end())
        return false;

    issueCommand(*best, best_cmd, best_cmd == NextCmd::Column, now);
    if (best->state == RequestState::Servicing) {
        // Nothing waits on a writeback; retire it at column issue.
        ++stats_.writes;
        ++stats_.serviced_by_class[static_cast<std::size_t>(
            RequestClass::Writeback)];
        traceRequest(telemetry::EventKind::WriteRetire, *best, now,
                     best->arrival);
        trackPendingRow(best->coord, -1);
        write_index_.erase(best->line_addr);
        write_q_.erase(best);
    }
    return true;
}

void
MemoryController::tickEdge(Cycle now)
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    if (now != next_edge_) {
        // Time moved past the expected edge without skipTo() (a caller
        // stepping in strides): realign.
        next_edge_ = (now + period - 1) / period * period;
        if (now != next_edge_)
            return;
    }
    next_edge_ = now + period;

    ++stats_.dram_cycles;
    stats_.read_queue_occupancy_sum += pool_.size();

    completeFinished(now);
    syncInterval();

    if (config_.apd_enabled && now >= next_apd_scan_) {
        runApd(now);
        next_apd_scan_ = now + config_.age_quantum;
    }

    if (channel_.refreshDue(now)) {
        if (channel_.commandBusFree(now)) {
            channel_.refresh(now);
            invalidateMemos(); // every bank is now closed
        }
        return;
    }

    if (write_q_.size() >= config_.write_drain_high)
        write_drain_mode_ = true;
    else if (write_q_.size() <= config_.write_drain_low)
        write_drain_mode_ = false;

    if (write_drain_mode_) {
        if (!scheduleWrite(now))
            scheduleRead(now);
    } else {
        if (!scheduleRead(now) && pool_.empty())
            scheduleWrite(now);
    }
}

// --- event-driven skipping --------------------------------------------

Cycle
MemoryController::nextEventCycle(Cycle from)
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    const Cycle next_tick = (from + period - 1) / period * period;
    // Memo for the skipTo() that follows a successful jump computation.
    nec_from_ = from;
    nec_next_tick_ = next_tick;
    // Track the earliest *raw* event cycle and align once at the end:
    // alignUp is monotonic, so it commutes with min and a single
    // division suffices (this function runs once per jump attempt).
    // raw <= next_tick is exactly alignUp(raw) == next_tick.
    Cycle raw = kNeverCycle;
    const auto fold = [&](Cycle c) {
        raw = std::min(raw, std::max(c, from));
    };

    // (c) In-flight data first -- O(1) and the most common bound on a
    // latency-bound workload: read completions and write forwards.
    if (!servicing_.empty())
        fold(servicing_min_ready_);
    for (const PendingForward &fwd : forwards_)
        fold(fwd.ready);
    if (raw <= next_tick)
        return next_tick;

    // (a) Queued reads: with the channel frozen inside a gap, the first
    // cycle a candidate can issue is exactly max(bank-local ready,
    // channel-global ready) of its command, so the first for any
    // candidate is the min over commands of max(min_ready_, global).
    // Class-blocked requests are never candidates: accuracy estimates
    // and ranks only move on controller or core events, so a request
    // blocked at `from` stays blocked for the whole gap. The tracker
    // can roll an interval on a cycle whose tick() returned before
    // scheduling, so the mask is synced before the table is brought
    // current.
    syncInterval();
    if (occupied_banks_ != 0) {
        publishStale();
        const ReadyCycles global = globalReady(false);
        for (std::size_t c = 0; c < global.size(); ++c)
            fold(std::max(min_ready_[c], global[c]));
        if (raw <= next_tick)
            return next_tick;
    }

    // (b) Writes: a tick attempts the write path iff drain mode is on
    // (projected here with the gap-constant queue size, mirroring the
    // hysteresis update in tick()) or the read buffer is empty. A failed
    // scheduleWrite mutates nothing, so the event is not the attempt but
    // the first cycle some pending write's next command becomes legal --
    // and with the channel frozen inside the gap, that cycle is exactly
    // max(bank-local ready, channel-global ready) per write.
    if (!write_q_.empty()) {
        bool drain = write_drain_mode_;
        if (write_q_.size() >= config_.write_drain_high)
            drain = true;
        else if (write_q_.size() <= config_.write_drain_low)
            drain = false;
        if (drain || pool_.empty()) {
            const ReadyCycles global = globalReady(true);
            for (const Request &w : write_q_) {
                bool row_hit = false;
                const NextCmd cmd = nextCommand(w, &row_hit);
                fold(std::max(localReady(w.coord.bank)[idx(cmd)],
                              global[idx(cmd)]));
                if (raw <= next_tick)
                    return next_tick;
            }
        }
    }

    // (d) Refresh fires at the first DRAM cycle at/after its deadline
    // with a free command bus; due-but-bus-busy ticks do nothing (they
    // return before the scheduling stage). The command bus state cannot
    // change inside a gap (no commands issue), so this bound is exact.
    if (channel_.refreshEnabled()) {
        fold(std::max(channel_.nextRefreshDue(),
                      channel_.commandBusFreeAt()));
        if (raw <= next_tick)
            return next_tick;
    }

    // (e) APD: a drop needs an APD scan at/after the request's drop
    // deadline. Any aligned scan cycle earlier than
    // alignUp(max(next_apd_scan_, min_deadline)) is earlier than the
    // minimum deadline, so no drop can precede the folded cycle. The
    // O(queue) deadline refinement only runs when the bare scan
    // schedule would otherwise bound the jump and apd_due_, a lower
    // bound on min_deadline, does not already rule the fold out.
    if (config_.apd_enabled) {
        std::uint64_t pref_cores = 0; // cores with a queued prefetch
        for (std::uint64_t mask = occupied_banks_; mask != 0;
             mask &= mask - 1) {
            const auto b = static_cast<std::uint32_t>(__builtin_ctzll(mask));
            pref_cores |= shards_[b].pref_core_mask;
        }
        if (pref_cores != 0) {
            const Cycle scan_base = std::max(next_apd_scan_, from);
            const Cycle bare_scan =
                (scan_base + period - 1) / period * period;
            if (bare_scan < raw &&
                std::max(next_apd_scan_, apd_due_) < raw) {
                // All of a core's requests share its drop threshold and
                // the pool chain is in arrival order, so a core's first
                // queued prefetch holds its earliest deadline: the walk
                // stops once every such core has been seen.
                Cycle min_deadline = kNeverCycle;
                for (std::uint32_t slot = pool_.head();
                     slot != RequestPool::kNone && pref_cores != 0;
                     slot = pool_.next(slot)) {
                    const Request &req = pool_.at(slot);
                    const std::uint64_t bit = 1ULL << req.core;
                    if ((pref_cores & bit) != 0 && req.isPrefetch() &&
                        req.state == RequestState::Queued) {
                        min_deadline = std::min(
                            min_deadline, req.arrival + drop_delay_[req.core]);
                        pref_cores &= ~bit;
                    }
                }
                if (min_deadline != kNeverCycle)
                    fold(std::max(next_apd_scan_, min_deadline));
            }
        }
    }

    if (raw == kNeverCycle)
        return kNeverCycle;
    return (raw + period - 1) / period * period;
}

void
MemoryController::skipTo(Cycle from, Cycle to)
{
    const Cycle period = channel_.timing().cpu_per_dram_cycle;
    // The jump path always calls nextEventCycle(from) immediately before
    // skipTo(from, to); reuse its alignUp(from) memo when it matches.
    const Cycle first = from == nec_from_
                            ? nec_next_tick_
                            : (from + period - 1) / period * period;
    if (first >= to)
        return; // the gap contains no DRAM cycle
    const std::uint64_t ticks = (to - 1 - first) / period + 1;
    next_edge_ = first + ticks * period; // the first edge at or after to
    stats_.dram_cycles += ticks;
    stats_.read_queue_occupancy_sum +=
        ticks * static_cast<std::uint64_t>(pool_.size());
    if (config_.apd_enabled) {
        // Replay the APD scan schedule across the gap: a scan advances
        // next_apd_scan_ even when it drops nothing, and the schedule
        // (the age quantum is not a multiple of the DRAM clock) must
        // stay bit-identical with the cycle-by-cycle loop. No scan in
        // the gap can drop anything -- nextEventCycle() bounded the gap
        // by the earliest possible drop.
        while (true) {
            Cycle scan = std::max(next_apd_scan_, first);
            scan = (scan + period - 1) / period * period;
            if (scan >= to)
                break;
            next_apd_scan_ = scan + config_.age_quantum;
        }
    }
}

} // namespace padc::memctrl
