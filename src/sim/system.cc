#include "sim/system.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "telemetry/profiler.hh"

namespace padc::sim
{

SystemConfig
SystemConfig::baseline(std::uint32_t cores)
{
    SystemConfig c;
    c.num_cores = cores;

    c.l1.size_bytes = 32 * 1024;
    c.l1.ways = 4;
    c.l1.hit_latency = 2;

    c.l2.size_bytes = cores == 1 ? 1024 * 1024 : 512 * 1024;
    c.l2.ways = 8;
    c.l2.hit_latency = 15;

    std::uint32_t buffer = 32 * cores;
    if (cores == 1 || cores == 2)
        buffer = 64;
    else if (cores == 4)
        buffer = 128;
    else if (cores == 8)
        buffer = 256;
    c.sched.request_buffer_size = buffer;
    c.mshr_per_l2 = buffer / cores;

    // The paper measures accuracy over 100K-cycle intervals across 200M
    // instructions; our runs are ~100x shorter, so the baseline interval
    // is scaled down to keep a comparable number of adaptation points.
    c.sched.accuracy.interval = 25000;

    // APD drop thresholds: the paper's Table 6 values. They are safe at
    // our timescales because dropped prefetches leave the interval PSC
    // (see AccuracyTracker), which removes the drop/mismeasure feedback
    // loop; the threshold ablation bench sweeps scaled variants.
    c.sched.drop_thresholds = {100, 1500, 50000, 100000};

    return c;
}

ConfigErrors
SystemConfig::validate() const
{
    ConfigErrors errors;
    memctrl::validateCoreCount(num_cores, errors, "num_cores");
    if (mshr_per_l2 == 0)
        errors.add("mshr_per_l2", "must be >= 1");
    core.validate(errors, "core");
    l1.validate(errors, "l1");
    l2.validate(errors, "l2");
    sched.validate(errors, "sched");
    dram.validate(errors, "dram");
    if (prefetch_enabled && prefetcher.kind == PrefetcherKind::None) {
        errors.add("prefetcher.kind",
                   "prefetch_enabled requires a prefetcher algorithm "
                   "(use prefetch_enabled = false to disable)");
    }
    return errors;
}

std::string
RunStatus::detail() const
{
    if (converged())
        return "";
    std::string cores;
    for (std::uint32_t i = 0; i < 64; ++i) {
        if (truncated_mask & (1ULL << i)) {
            if (!cores.empty())
                cores += ",";
            cores += std::to_string(i);
        }
    }
    return (cores_truncated == 1 ? "core " : "cores ") + cores +
           " hit the " + std::to_string(max_cycles) +
           "-cycle cap before retiring the instruction target";
}

System::System(const SystemConfig &config,
               std::vector<core::TraceSource *> traces)
    : config_(config), traces_(std::move(traces)),
      // Fig. 4(a) layout: eight 200-cycle buckets plus overflow.
      useful_hist_(200, 8), useless_hist_(200, 8)
{
    const ConfigErrors errors = config_.validate();
    if (!errors.ok())
        throw std::invalid_argument("invalid SystemConfig: " + errors.str());
    if (traces_.size() != config_.num_cores) {
        throw std::invalid_argument(
            "System: got " + std::to_string(traces_.size()) +
            " trace sources for " + std::to_string(config_.num_cores) +
            " cores");
    }

    dram_ = std::make_unique<dram::DramSystem>(config_.dram);
    tracker_ = std::make_unique<memctrl::AccuracyTracker>(
        config_.num_cores, config_.sched.accuracy);

    for (std::uint32_t ch = 0; ch < dram_->numChannels(); ++ch) {
        controllers_.push_back(std::make_unique<memctrl::MemoryController>(
            config_.sched, dram_->channel(ch), *tracker_, *this,
            config_.num_cores));
    }

    telem_ = config_.collector;
    if (telem_ != nullptr && telem_->trace() != nullptr) {
        for (std::uint32_t ch = 0; ch < dram_->numChannels(); ++ch) {
            const auto id = static_cast<std::uint8_t>(ch);
            controllers_[ch]->setTrace(telem_->trace(), id);
            dram_->channel(ch).setTrace(telem_->trace(), id);
        }
    }

    const std::uint32_t num_l2 = config_.shared_l2 ? 1 : config_.num_cores;
    for (std::uint32_t i = 0; i < num_l2; ++i) {
        l2s_.push_back(std::make_unique<cache::SetAssocCache>(
            config_.l2, "l2." + std::to_string(i)));
        mshrs_.push_back(
            std::make_unique<cache::MshrFile>(config_.mshr_per_l2));
    }

    for (CoreId i = 0; i < config_.num_cores; ++i) {
        l1s_.push_back(std::make_unique<cache::SetAssocCache>(
            config_.l1, "l1." + std::to_string(i)));
        prefetchers_.push_back(
            prefetch::makePrefetcher(config_.prefetcher));
        if (config_.ddpf_enabled) {
            ddpf_.push_back(
                std::make_unique<prefetch::DdpfFilter>(config_.ddpf));
        }
        if (config_.fdp_enabled) {
            FdpState state;
            state.controller =
                std::make_unique<prefetch::FdpController>(config_.fdp);
            state.pollution = std::make_unique<prefetch::PollutionFilter>(
                config_.fdp.pollution_filter_bits);
            fdp_.push_back(std::move(state));
            prefetchers_.back()->setAggressiveness(
                fdp_.back().controller->degree(),
                fdp_.back().controller->distance());
        }
        cores_.push_back(std::make_unique<core::Core>(
            i, config_.core, *traces_[i], *this));
    }

    mem_.resize(config_.num_cores);
    results_.resize(config_.num_cores);
    next_interval_ = config_.sched.accuracy.interval;
}

System::~System() = default;

void
System::fillL1(CoreId core, Addr line_addr, bool dirty, Cycle now)
{
    cache::SetAssocCache &l1 = *l1s_[core];
    if (cache::Line *existing = l1.peek(line_addr)) {
        existing->dirty = existing->dirty || dirty;
        return;
    }
    const cache::EvictResult ev =
        l1.fill(line_addr, core, 0, false, false, 0);
    if (ev.valid && ev.dirty) {
        // Inclusive hierarchy: the L2 normally still holds the victim.
        cache::Line *l2_line = l2For(core).peek(ev.line_addr);
        if (l2_line != nullptr) {
            l2_line->dirty = true;
        } else {
            const dram::DramCoord coord = dram_->map(ev.line_addr);
            controllerFor(coord).enqueueWrite(coord, ev.line_addr, core,
                                              now);
            ++mem_[core].writebacks;
        }
    }
    if (dirty)
        l1.peek(line_addr)->dirty = true;
}

void
System::resolveUseful(cache::Line &line, Addr line_addr)
{
    line.prefetched = false;
    tracker_->onPrefetchUsed(line.owner);
    CoreMemStats &ms = mem_[line.owner];
    ++ms.useful_prefetch_fills;
    ++ms.useful_req_fills;
    if (line.fill_row_hit)
        ++ms.useful_req_row_hits;
    useful_hist_.sample(line.service_time);
    if (config_.ddpf_enabled)
        ddpf_[line.owner]->update(line_addr, line.pc, true);
    if (config_.fdp_enabled)
        ++fdp_[line.owner].counts.prefetches_used;
}

void
System::resolveUseless(const cache::EvictResult &victim, Addr pc)
{
    useless_hist_.sample(victim.service_time);
    if (config_.ddpf_enabled)
        ddpf_[victim.owner]->update(victim.line_addr, pc, false);
}

void
System::issuePrefetch(CoreId core, Addr addr, Addr pc, Cycle now)
{
    const Addr line_addr = lineAlign(addr);
    CoreMemStats &ms = mem_[core];
    ++ms.prefetch_candidates;

    if (l2For(core).probe(line_addr))
        return;
    cache::MshrFile &mshr = mshrFor(core);
    if (mshr.find(line_addr) != nullptr)
        return;
    if (config_.ddpf_enabled && !ddpf_[core]->allow(line_addr, pc)) {
        ddpf_[core]->noteFiltered();
        ++ms.prefetches_filtered;
        return;
    }
    if (mshr.full()) {
        ++ms.prefetches_no_room;
        return;
    }
    const dram::DramCoord coord = dram_->map(line_addr);
    if (!controllerFor(coord).enqueueRead(coord, line_addr, core, pc,
                                          RequestClass::Prefetch, now)) {
        ++ms.prefetches_no_room;
        return;
    }
    cache::MshrEntry &entry = mshr.alloc(line_addr);
    entry.core = core;
    entry.pc = pc;
    entry.cls = RequestClass::Prefetch;
    entry.was_prefetch = true;
    entry.issue_cycle = now;
    ++ms.prefetches_issued;
    traceMshr(telemetry::EventKind::MshrAlloc, core, line_addr,
              RequestClass::Prefetch, now);
    if (config_.fdp_enabled)
        ++fdp_[core].counts.prefetches_sent;
}

core::AccessReply
System::access(CoreId core, Addr addr, Addr pc, bool is_load,
               std::uint64_t token_tag, bool runahead, Cycle now)
{
    // L1.
    if (cache::Line *l1_line = l1s_[core]->access(addr)) {
        if (!is_load)
            l1_line->dirty = true;
        return {core::AccessStatus::Complete,
                now + config_.l1.hit_latency};
    }

    // L2.
    cache::SetAssocCache &l2 = l2For(core);
    CoreMemStats &ms = mem_[core];
    ++ms.l2_demand_accesses;
    if (config_.fdp_enabled)
        ++fdp_[core].counts.demand_accesses;

    cache::Line *l2_line = l2.access(addr);
    const bool l2_miss = l2_line == nullptr;
    core::AccessReply reply;

    if (!l2_miss) {
        if (l2_line->prefetched)
            resolveUseful(*l2_line, lineAlign(addr));
        fillL1(core, lineAlign(addr), !is_load, now);
        reply = {core::AccessStatus::Complete,
                 now + config_.l1.hit_latency + config_.l2.hit_latency};
    } else {
        const Addr line_addr = lineAlign(addr);
        if (config_.fdp_enabled &&
            fdp_[core].pollution->checkAndClear(line_addr)) {
            ++ms.pollution_misses;
            ++fdp_[core].counts.pollution_misses;
        }

        cache::MshrFile &mshr = mshrFor(core);
        if (cache::MshrEntry *entry = mshr.find(line_addr)) {
            if (entry->isPrefetch()) {
                // Demand matched an in-flight prefetch: promote it.
                // This is a primary miss for MPKI purposes; coalescing
                // onto an existing demand miss is not.
                ++ms.l2_demand_misses;
                entry->cls = RequestClass::DemandRead;
                const dram::DramCoord coord = dram_->map(line_addr);
                controllerFor(coord).promote(line_addr, now);
                tracker_->onPrefetchUsed(entry->core);
                ++ms.promotions;
                if (config_.ddpf_enabled)
                    ddpf_[core]->update(line_addr, entry->pc, true);
                if (config_.fdp_enabled) {
                    ++fdp_[core].counts.late_prefetches;
                    ++fdp_[core].counts.prefetches_used;
                }
            }
            entry->waiters.push_back({core, token_tag});
            if (!is_load)
                entry->store_waiting = true;
            traceMshr(telemetry::EventKind::MshrCoalesce, core, line_addr,
                      entry->cls, now);
            reply = {core::AccessStatus::Pending, 0};
        } else if (mshr.full()) {
            // Nothing can fill this line or let the access coalesce
            // while the file stays full, so every retry bounces exactly
            // like this one until a release: park the issue stage
            // (settleIdle() counts the skipped retries, wakeParked()
            // ends the park).
            reply = {core::AccessStatus::Retry, 0, /*park=*/true};
        } else {
            const dram::DramCoord coord = dram_->map(line_addr);
            if (!controllerFor(coord).enqueueRead(
                    coord, line_addr, core, pc, RequestClass::DemandRead,
                    now)) {
                reply = {core::AccessStatus::Retry, 0};
            } else {
                ++ms.l2_demand_misses;
                cache::MshrEntry &entry = mshr.alloc(line_addr);
                entry.core = core;
                entry.pc = pc;
                entry.cls = RequestClass::DemandRead;
                entry.was_prefetch = false;
                entry.issue_cycle = now;
                entry.waiters.push_back({core, token_tag});
                if (!is_load)
                    entry.store_waiting = true;
                traceMshr(telemetry::EventKind::MshrAlloc, core, line_addr,
                          RequestClass::DemandRead, now);
                reply = {core::AccessStatus::Pending, 0};
            }
        }
    }

    // Prefetcher training and issue. Skipped when the demand itself is
    // being retried, so a stalled access does not re-train the
    // prefetcher every cycle.
    if (config_.prefetch_enabled &&
        reply.status != core::AccessStatus::Retry) {
        candidate_buf_.clear();
        prefetchers_[core]->observe(addr, pc, l2_miss, runahead,
                                    candidate_buf_);
        for (const Addr candidate : candidate_buf_)
            issuePrefetch(core, candidate, pc, now);
    }
    return reply;
}

void
System::dramReadComplete(const memctrl::Request &req, Cycle now)
{
    const Addr line_addr = req.line_addr;
    const CoreId core = req.core;
    cache::MshrFile &mshr = mshrFor(core);
    cache::MshrEntry *entry = mshr.find(line_addr);
    assert(entry != nullptr && "read completion without an MSHR entry");

    // The MSHR is the source of truth for promotion status: a read
    // forwarded from the write queue can be promoted while its request
    // copy is already out of the buffer.
    const bool still_prefetch = entry->isPrefetch();
    const bool was_prefetch = entry->was_prefetch;
    const bool row_hit =
        req.row_outcome == memctrl::Request::RowOutcome::Hit;
    const auto service =
        static_cast<std::uint32_t>(now - req.arrival);

    CoreMemStats &ms = mem_[core];
    ++ms.fills_total;
    if (row_hit)
        ++ms.fills_row_hit;
    if (!was_prefetch) {
        ++ms.demand_fills;
        ++ms.useful_req_fills;
        if (row_hit)
            ++ms.useful_req_row_hits;
    } else {
        ++ms.prefetch_fills;
        if (!still_prefetch) {
            // Promoted prefetch: counted useful at fill (the PUC side
            // was already counted at promotion time).
            ++ms.useful_prefetch_fills;
            ++ms.useful_req_fills;
            if (row_hit)
                ++ms.useful_req_row_hits;
            useful_hist_.sample(service);
        }
    }

    cache::SetAssocCache &l2 = l2For(core);
    const cache::EvictResult ev = l2.fill(
        line_addr, core, entry->pc, still_prefetch, row_hit, service);
    if (ev.valid) {
        const bool l1_dirty = l1s_[ev.owner]->invalidate(ev.line_addr);
        if (ev.dirty || l1_dirty) {
            const dram::DramCoord coord = dram_->map(ev.line_addr);
            controllerFor(coord).enqueueWrite(coord, ev.line_addr,
                                              ev.owner, now);
            ++mem_[ev.owner].writebacks;
        }
        if (ev.prefetched_unused)
            resolveUseless(ev, ev.pc);
        // FDP pollution tracking: a prefetch fill displacing
        // demand-useful data is potential pollution.
        if (config_.fdp_enabled && still_prefetch &&
            !ev.prefetched_unused) {
            fdp_[core].pollution->insert(ev.line_addr);
        }
    }

    if (!still_prefetch)
        fillL1(core, line_addr, entry->store_waiting, now);
    for (const cache::LoadToken &waiter : entry->waiters) {
        settleIdle(waiter.core, now); // before completeLoad() unparks
        cores_[waiter.core]->completeLoad(waiter.tag, now);
        core_next_[waiter.core] = 0; // woken: cached bound is stale
    }
    traceMshr(telemetry::EventKind::MshrRelease, core, line_addr,
              entry->cls, now);
    mshr.release(line_addr);
    wakeParked(core, now);
}

void
System::dramPrefetchDropped(const memctrl::Request &req, Cycle now)
{
    cache::MshrFile &mshr = mshrFor(req.core);
    [[maybe_unused]] cache::MshrEntry *entry = mshr.find(req.line_addr);
    assert(entry != nullptr && entry->isPrefetch() &&
           entry->waiters.empty() &&
           "APD must only drop unpromoted prefetches");
    traceMshr(telemetry::EventKind::MshrRelease, req.core, req.line_addr,
              RequestClass::Prefetch, now);
    mshr.release(req.line_addr);
    wakeParked(req.core, now);
}

void
System::wakeParked(CoreId core, Cycle now)
{
    const CoreId first = config_.shared_l2 ? 0 : core;
    const CoreId last = config_.shared_l2 ? config_.num_cores : core + 1;
    for (CoreId c = first; c < last; ++c) {
        if (cores_[c]->issueParked()) {
            settleIdle(c, now); // the skipped cycles bounced
            cores_[c]->unpark();
            core_next_[c] = 0; // retry for real this very cycle
        }
    }
}

void
System::settleIdle(CoreId core, Cycle until)
{
    const Cycle from = idle_from_[core];
    if (until <= from)
        return;
    idle_from_[core] = until;
    const std::uint64_t cycles = until - from;
    core::Core &model = *cores_[core];
    model.accountIdleCycles(cycles);
    if (!model.issueParked())
        return;
    // What access() counts for a bounce off a full MSHR file: an L1
    // miss, then an L2 demand access that misses. It trains no
    // prefetcher, and its FDP pollution probe cleared the line's bit on
    // the real bounce (only a fill, which releases an entry, sets one).
    l1s_[core]->addMisses(cycles);
    l2For(core).addMisses(cycles);
    mem_[core].l2_demand_accesses += cycles;
    if (config_.fdp_enabled)
        fdp_[core].counts.demand_accesses += cycles;
}

void
System::settleAllIdle()
{
    for (CoreId i = 0; i < config_.num_cores; ++i)
        settleIdle(i, now_);
}

std::array<std::uint64_t, kRequestClassCount>
System::classServiced() const
{
    std::array<std::uint64_t, kRequestClassCount> total{};
    for (const auto &controller : controllers_) {
        const auto &per_class = controller->stats().serviced_by_class;
        for (std::size_t c = 0; c < kRequestClassCount; ++c)
            total[c] += per_class[c];
    }
    return total;
}

StatSet
System::exportStats() const
{
    StatSet stats;
    stats.add("cycles", static_cast<double>(now_));

    for (CoreId i = 0; i < config_.num_cores; ++i) {
        const std::string prefix = "core" + std::to_string(i) + ".";
        const CoreResult &res = results_[i];
        const core::CoreStats &cs = res.core_stats;
        const CoreMemStats &ms = res.mem_stats;
        stats.add(prefix + "instructions",
                  static_cast<double>(cs.instructions));
        stats.add(prefix + "cycles", static_cast<double>(res.done_cycle));
        stats.add(prefix + "loads", static_cast<double>(cs.loads));
        stats.add(prefix + "stores", static_cast<double>(cs.stores));
        stats.add(prefix + "load_stall_cycles",
                  static_cast<double>(cs.load_stall_cycles));
        stats.add(prefix + "runahead_episodes",
                  static_cast<double>(cs.runahead_episodes));
        stats.add(prefix + "l2_demand_accesses",
                  static_cast<double>(ms.l2_demand_accesses));
        stats.add(prefix + "l2_demand_misses",
                  static_cast<double>(ms.l2_demand_misses));
        stats.add(prefix + "demand_fills",
                  static_cast<double>(ms.demand_fills));
        stats.add(prefix + "prefetch_fills",
                  static_cast<double>(ms.prefetch_fills));
        stats.add(prefix + "useful_prefetch_fills",
                  static_cast<double>(ms.useful_prefetch_fills));
        stats.add(prefix + "writebacks",
                  static_cast<double>(ms.writebacks));
        stats.add(prefix + "prefetches_issued",
                  static_cast<double>(ms.prefetches_issued));
        stats.add(prefix + "prefetch_candidates",
                  static_cast<double>(ms.prefetch_candidates));
        stats.add(prefix + "prefetches_filtered",
                  static_cast<double>(ms.prefetches_filtered));
        stats.add(prefix + "prefetches_no_room",
                  static_cast<double>(ms.prefetches_no_room));
        stats.add(prefix + "promotions",
                  static_cast<double>(ms.promotions));
        stats.add(prefix + "pref_sent",
                  static_cast<double>(res.pref_sent));
        stats.add(prefix + "pref_used",
                  static_cast<double>(res.pref_used));
        stats.add(prefix + "accuracy", tracker_->accuracy(i));
    }

    for (std::uint32_t i = 0; i < controllers_.size(); ++i) {
        const std::string prefix = "ctrl" + std::to_string(i) + ".";
        const memctrl::ControllerStats &cs = controllers_[i]->stats();
        stats.add(prefix + "demand_reads",
                  static_cast<double>(cs.demand_reads));
        stats.add(prefix + "prefetch_reads",
                  static_cast<double>(cs.prefetch_reads));
        stats.add(prefix + "writes", static_cast<double>(cs.writes));
        stats.add(prefix + "row_hits",
                  static_cast<double>(cs.read_row_hits));
        stats.add(prefix + "row_closed",
                  static_cast<double>(cs.read_row_closed));
        stats.add(prefix + "row_conflicts",
                  static_cast<double>(cs.read_row_conflicts));
        stats.add(prefix + "prefetches_dropped",
                  static_cast<double>(cs.prefetches_dropped));
        stats.add(prefix + "prefetches_rejected_full",
                  static_cast<double>(cs.prefetches_rejected_full));
        stats.add(prefix + "demands_rejected_full",
                  static_cast<double>(cs.demands_rejected_full));
        stats.add(prefix + "promotions",
                  static_cast<double>(cs.promotions));
        stats.add(prefix + "forwarded_reads",
                  static_cast<double>(cs.forwarded_reads));
        stats.add(prefix + "duplicate_reads",
                  static_cast<double>(cs.duplicate_reads));
        stats.add(prefix + "avg_read_queue",
                  cs.dram_cycles > 0
                      ? static_cast<double>(cs.read_queue_occupancy_sum) /
                            static_cast<double>(cs.dram_cycles)
                      : 0.0);
        for (std::size_t c = 0; c < kRequestClassCount; ++c) {
            stats.add(prefix + "serviced." +
                          toString(static_cast<RequestClass>(c)),
                      static_cast<double>(cs.serviced_by_class[c]));
        }
    }

    const dram::ChannelStats ds = dram_->totalStats();
    stats.add("dram.activates", static_cast<double>(ds.activates));
    stats.add("dram.precharges", static_cast<double>(ds.precharges));
    stats.add("dram.reads", static_cast<double>(ds.reads));
    stats.add("dram.writes", static_cast<double>(ds.writes));
    stats.add("dram.refreshes", static_cast<double>(ds.refreshes));

    for (std::uint32_t i = 0; i < l2s_.size(); ++i) {
        const std::string prefix = "l2." + std::to_string(i) + ".";
        const cache::CacheStats &cs = l2s_[i]->stats();
        stats.add(prefix + "hits", static_cast<double>(cs.hits));
        stats.add(prefix + "misses", static_cast<double>(cs.misses));
        stats.add(prefix + "fills", static_cast<double>(cs.fills));
        stats.add(prefix + "evictions",
                  static_cast<double>(cs.evictions));
        stats.add(prefix + "dirty_evictions",
                  static_cast<double>(cs.dirty_evictions));
        stats.add(prefix + "useless_evictions",
                  static_cast<double>(cs.useless_evictions));
    }
    return stats;
}

void
System::sampleTelemetry(Cycle now)
{
    telemetry::IntervalSampler &sampler = *telem_->sampler();

    core_samples_.resize(config_.num_cores);
    for (CoreId i = 0; i < config_.num_cores; ++i) {
        telemetry::IntervalSampler::CoreSample &s = core_samples_[i];
        s.par = tracker_->accuracy(i);
        s.sent = tracker_->totalSent(i);
        s.used = tracker_->totalUsed(i);
        s.dropped = tracker_->totalDropped(i);
        s.drop_threshold = config_.sched.apd_enabled
                               ? controllers_[0]->apd().dropThreshold(i)
                               : 0;
    }

    chan_samples_.resize(controllers_.size());
    for (std::uint32_t ch = 0; ch < controllers_.size(); ++ch) {
        const memctrl::ControllerStats &cs = controllers_[ch]->stats();
        telemetry::IntervalSampler::ChannelSample &s = chan_samples_[ch];
        s.reads = cs.demand_reads + cs.prefetch_reads;
        s.writes = cs.writes;
        s.row_hits = cs.read_row_hits;
        s.row_reads =
            cs.read_row_hits + cs.read_row_closed + cs.read_row_conflicts;
        s.occupancy_sum = cs.read_queue_occupancy_sum;
        s.dram_cycles = cs.dram_cycles;
        s.write_queue = controllers_[ch]->writeQueueSize();
        s.serviced_by_class = cs.serviced_by_class;
    }

    const dram::TimingParams &timing = dram_->channel(0).timing();
    sampler.sample(now, core_samples_, chan_samples_,
                   timing.toCpu(timing.tBURST));
}

void
System::traceMshr(telemetry::EventKind kind, CoreId core, Addr line_addr,
                  RequestClass cls, Cycle now)
{
    if (telem_ == nullptr || telem_->trace() == nullptr)
        return;
    const dram::DramCoord coord = dram_->map(line_addr);
    telemetry::TraceEvent event;
    event.cycle = now;
    event.addr = line_addr;
    event.row = coord.row;
    event.kind = kind;
    event.core = static_cast<std::uint8_t>(core);
    event.channel = static_cast<std::uint8_t>(coord.channel);
    event.bank = static_cast<std::uint16_t>(coord.bank);
    event.cls = static_cast<std::uint8_t>(cls);
    event.flags = cls == RequestClass::Prefetch
                      ? telemetry::TraceEvent::kPrefetch
                      : 0;
    telem_->trace()->record(event);
}

void
System::intervalTick(Cycle now)
{
    accuracy_timeline_.emplace_back(now, tracker_->accuracy(0));
    if (telem_ != nullptr && telem_->sampler() != nullptr)
        sampleTelemetry(now);
    if (config_.fdp_enabled) {
        for (CoreId i = 0; i < config_.num_cores; ++i) {
            FdpState &state = fdp_[i];
            state.controller->evaluate(state.counts);
            state.counts = {};
            prefetchers_[i]->setAggressiveness(
                state.controller->degree(), state.controller->distance());
        }
    }
    next_interval_ = now + config_.sched.accuracy.interval;
}

RunStatus
System::run(std::uint64_t instructions_per_core, std::uint64_t max_cycles,
            std::uint64_t warmup_instructions)
{
    const Cycle end = now_ + max_cycles;
    std::uint64_t jump_cycles = 0;
    std::uint64_t jump_count = 0;
    std::uint64_t landed_cycles = 0;
    std::uint64_t core_ticks = 0;
    core_next_.assign(config_.num_cores, 0);
    idle_from_.assign(config_.num_cores, now_);
    std::uint32_t cores_done = 0;
    for (const CoreResult &res : results_)
        cores_done += res.done ? 1 : 0;
    while (now_ < end) {
        ++landed_cycles;
        if (now_ >= tracker_->nextBoundary())
            tracker_->tick(now_);
        if (now_ >= next_interval_) {
            settleAllIdle(); // FDP evaluates replayed demand accesses
            intervalTick(now_);
        }
        for (auto &controller : controllers_)
            controller->tick(now_);

        for (CoreId i = 0; i < config_.num_cores; ++i) {
            if (config_.event_skip && core_next_[i] > now_) {
                // Provably idle this cycle (nothing ticked the core and
                // no completion touched it since its bound was taken):
                // leave the cycle to settleIdle(), which replays the
                // exact idle accounting of a skipped tick, just as it
                // does for the gap cycles of a jump. A skipped core
                // cannot have newly warmed or finished: its bound stops
                // short of its retire goal.
                continue;
            }
            settleIdle(i, now_);
            cores_[i]->tick(now_);
            ++core_ticks;
            idle_from_[i] = now_ + 1;
            std::uint64_t retire_goal = 0; // a finished core has none
            if (!results_[i].done) {
                CoreResult &res = results_[i];
                const std::uint64_t retired =
                    cores_[i]->stats().instructions;
                if (!res.warmed && warmup_instructions > 0 &&
                    retired >= warmup_instructions) {
                    res.warmed = true;
                    res.warm_cycle = now_ + 1;
                    res.warm_core_stats = cores_[i]->stats();
                    res.warm_mem_stats = mem_[i];
                    res.warm_pref_sent = tracker_->totalSent(i);
                    res.warm_pref_used = tracker_->totalUsed(i);
                }
                if (retired >= instructions_per_core) {
                    res.done = true;
                    res.done_cycle = now_ + 1;
                    res.core_stats = cores_[i]->stats();
                    res.mem_stats = mem_[i];
                    res.pref_sent = tracker_->totalSent(i);
                    res.pref_used = tracker_->totalUsed(i);
                    ++cores_done;
                } else {
                    retire_goal = instructions_per_core;
                    if (!res.warmed && warmup_instructions > 0)
                        retire_goal =
                            std::min(retire_goal, warmup_instructions);
                }
            }
            if (config_.event_skip) {
                core_next_[i] =
                    cores_[i]->nextEventCycle(now_ + 1, retire_goal);
            }
        }
        ++now_;
        if (cores_done == config_.num_cores)
            break;

        if (!config_.event_skip)
            continue;

        // Next-event jump: derive the earliest cycle >= now_ at which
        // anything can change -- interval and accuracy-tracker
        // boundaries (stat/telemetry sampling points must fire at their
        // exact cycles), per-core retire/issue/wake-up events, and each
        // controller's bank wakes, completions, refresh deadlines, and
        // APD drop deadlines -- then advance simulated time in one step.
        // Skipped cycles are provably no-ops apart from per-cycle stat
        // integrals, which skipTo()/accountIdleCycles() replay exactly,
        // so all results stay bit-identical with the legacy loop.
        Cycle next = std::min(end, next_interval_);
        next = std::min(next, tracker_->nextBoundary());
        if (next <= now_)
            continue;
        bool can_skip = true;
        for (CoreId i = 0; i < config_.num_cores; ++i) {
            // Cached by the tick loop above (and reset to 0 by the
            // completion handlers); a core that ticked this cycle has a
            // fresh bound, a skipped core's frozen bound is still exact.
            const Cycle c = core_next_[i];
            if (c <= now_) {
                can_skip = false; // a core acts this very cycle
                break;
            }
            next = std::min(next, c);
        }
        if (!can_skip || next <= now_)
            continue;
        // A jump that ends at or before every controller's next DRAM
        // edge spans no DRAM cycle: no controller bound can be earlier
        // than its next edge, and skipTo() would return at once.
        Cycle edge = kNeverCycle;
        for (const auto &controller : controllers_)
            edge = std::min(edge, controller->nextEdge());
        if (next > edge) {
            for (const auto &controller : controllers_) {
                next = std::min(next, controller->nextEventCycle(now_));
                if (next <= now_)
                    break;
            }
            if (next <= now_)
                continue;
            for (auto &controller : controllers_)
                controller->skipTo(now_, next);
        }
        jump_cycles += next - now_;
        ++jump_count;
        now_ = next;
    }
    // Per-event profiler updates would be atomic RMWs; batch them so the
    // hot loop stays atomic-free (nothing observes the counters mid-run
    // -- snapshots happen after run() returns).
    telemetry::WallProfiler::instance().addLoopWork(
        {jump_cycles, jump_count, landed_cycles, core_ticks});

    settleAllIdle();

    // Cycle cap reached: freeze whatever progress the remaining cores
    // made so metrics stay computable (done remains false), and report
    // the truncation in the returned status instead of pretending the
    // run converged.
    RunStatus status;
    status.cycles = now_;
    status.max_cycles = max_cycles;
    for (CoreId i = 0; i < config_.num_cores; ++i) {
        if (!results_[i].done) {
            CoreResult &res = results_[i];
            res.done_cycle = now_;
            res.core_stats = cores_[i]->stats();
            res.mem_stats = mem_[i];
            res.pref_sent = tracker_->totalSent(i);
            res.pref_used = tracker_->totalUsed(i);
            status.truncated_mask |= 1ULL << i;
            ++status.cores_truncated;
        } else {
            ++status.cores_completed;
        }
    }
    return status;
}

} // namespace padc::sim
