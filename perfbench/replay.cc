#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <unordered_map>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "dram/dram_system.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/controller.hh"
#include "prefetch/prefetcher.hh"

namespace perfbench
{

using padc::Addr;
using padc::Cycle;
using padc::RequestClass;
using padc::telemetry::EventKind;
using padc::telemetry::TraceEvent;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** An enqueueRead/enqueueWrite/promote call the run made. */
struct Call
{
    Cycle cycle = 0;
    Addr addr = 0;
    padc::CoreId core = 0;
    EventKind kind = EventKind::Enqueue; ///< Enqueue, EnqueueWrite, Promote
    RequestClass cls = RequestClass::DemandRead;
    std::uint8_t channel = 0;
};

/**
 * Completion sink of the replayed controllers. The running System
 * enqueues the writeback of a dirty L2 victim from inside its completion
 * callback, so the replay does the same: writebacks recorded between a
 * Complete and the MSHR release that follows it are issued from here.
 */
class ReplayHandler : public padc::memctrl::ResponseHandler
{
  public:
    ReplayHandler(const padc::dram::DramSystem &dram,
                  std::vector<std::unique_ptr<padc::memctrl::MemoryController>>
                      &controllers)
        : dram_(dram), controllers_(controllers)
    {
    }

    /** Writebacks the completion of @p line issues, in completion order. */
    std::unordered_map<Addr, std::deque<std::vector<Call>>> evictions;

    void dramReadComplete(const padc::memctrl::Request &req,
                          Cycle now) override
    {
        auto it = evictions.find(req.line_addr);
        if (it == evictions.end() || it->second.empty())
            return;
        for (const Call &call : it->second.front()) {
            const padc::dram::DramCoord coord = dram_.map(call.addr);
            controllers_[coord.channel]->enqueueWrite(coord, call.addr,
                                                      call.core, now);
        }
        it->second.pop_front();
    }

    void dramPrefetchDropped(const padc::memctrl::Request &, Cycle) override
    {
    }

  private:
    const padc::dram::DramSystem &dram_;
    std::vector<std::unique_ptr<padc::memctrl::MemoryController>>
        &controllers_;
};

bool
isRead(EventKind kind)
{
    return kind == EventKind::Enqueue || kind == EventKind::Coalesce ||
           kind == EventKind::Forward || kind == EventKind::RejectFull;
}

/**
 * Split the trace into the calls made from core ticks (replayed after
 * the controller tick of their cycle) and the writebacks made from
 * completion callbacks (replayed from ReplayHandler).
 */
void
splitCalls(const std::vector<TraceEvent> &events, std::vector<Call> *calls,
           ReplayHandler *handler)
{
    // Writebacks are attributed to the completion whose callback is
    // still open, i.e. one whose MSHR release has not been seen yet.
    std::vector<Call> *open = nullptr;
    Addr open_line = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &ev = events[i];
        Call call;
        call.cycle = ev.cycle;
        call.addr = ev.addr;
        call.core = ev.core;
        call.channel = ev.channel;
        call.kind = ev.kind;
        call.cls = ev.requestClass();
        switch (ev.kind) {
          case EventKind::Complete:
            handler->evictions[ev.addr].emplace_back();
            open = &handler->evictions[ev.addr].back();
            open_line = ev.addr;
            break;
          case EventKind::MshrRelease:
            if (open != nullptr && ev.addr == open_line)
                open = nullptr;
            break;
          case EventKind::EnqueueWrite:
            if (open != nullptr)
                open->push_back(call);
            else
                calls->push_back(call);
            break;
          case EventKind::Coalesce:
            // The event carries the class of the request already queued.
            // A demand duplicate of a prefetch promotes it, which the
            // trace shows as a Promote of the same line right after; any
            // other duplicate changes nothing but a counter.
            call.kind = EventKind::Enqueue;
            if (i + 1 < events.size() &&
                events[i + 1].kind == EventKind::Promote &&
                events[i + 1].addr == ev.addr) {
                call.cls = RequestClass::DemandRead;
                ++i;
            } else {
                call.cls = RequestClass::Prefetch;
            }
            calls->push_back(call);
            break;
          case EventKind::Promote:
            calls->push_back(call);
            break;
          default:
            if (isRead(ev.kind)) {
                call.kind = EventKind::Enqueue;
                calls->push_back(call);
            }
            break;
        }
    }
}

} // namespace

MemctrlReplay
replayMemctrl(const Capture &capture)
{
    const padc::sim::SystemConfig &config = capture.config;
    padc::dram::DramSystem dram(config.dram);
    padc::memctrl::AccuracyTracker tracker(config.num_cores,
                                           config.sched.accuracy);
    std::vector<std::unique_ptr<padc::memctrl::MemoryController>>
        controllers;
    ReplayHandler handler(dram, controllers);
    for (std::uint32_t ch = 0; ch < dram.numChannels(); ++ch) {
        controllers.push_back(
            std::make_unique<padc::memctrl::MemoryController>(
                config.sched, dram.channel(ch), tracker, handler,
                config.num_cores));
    }

    std::vector<Call> calls;
    splitCalls(capture.events, &calls, &handler);

    MemctrlReplay out;
    const Cycle end = capture.cycles;
    std::size_t next_call = 0;
    std::size_t next_row = 0;
    const auto start = Clock::now();
    Cycle now = 0;
    while (now < end) {
        if (now >= tracker.nextBoundary()) {
            // Feed the interval's prefetch-used count before PAR is
            // recomputed, exactly as the cores did during the interval.
            while (next_row < capture.rows.size() &&
                   capture.rows[next_row].cycle <= now) {
                const auto &row = capture.rows[next_row++];
                for (std::uint64_t u = 0; u < row.puc; ++u)
                    tracker.onPrefetchUsed(row.core);
            }
        }
        tracker.tick(now);
        for (auto &controller : controllers)
            controller->tick(now);
        out.ticks += controllers.size();
        while (next_call < calls.size() && calls[next_call].cycle == now) {
            const Call &call = calls[next_call++];
            const padc::dram::DramCoord coord = dram.map(call.addr);
            padc::memctrl::MemoryController &ctrl =
                *controllers[coord.channel];
            switch (call.kind) {
              case EventKind::EnqueueWrite:
                ctrl.enqueueWrite(coord, call.addr, call.core, now);
                break;
              case EventKind::Promote:
                ctrl.promote(call.addr, now);
                break;
              default:
                ctrl.enqueueRead(coord, call.addr, call.core, 0, call.cls,
                                 now);
                break;
            }
        }
        ++now;
        Cycle next = std::min(end, tracker.nextBoundary());
        if (next_call < calls.size())
            next = std::min(next, calls[next_call].cycle);
        for (const auto &controller : controllers)
            next = std::min(next, controller->nextEventCycle(now));
        if (next > now) {
            for (auto &controller : controllers)
                controller->skipTo(now, next);
            now = next;
        }
    }
    out.host_s = secondsSince(start);

    for (const auto &controller : controllers) {
        const padc::memctrl::ControllerStats &cs = controller->stats();
        out.reads += cs.demand_reads + cs.prefetch_reads;
        out.row_hits += cs.read_row_hits;
    }
    return out;
}

DramReplay
replayDram(const Capture &capture)
{
    padc::dram::DramSystem dram(capture.config.dram);
    std::vector<TraceEvent> commands;
    for (const TraceEvent &ev : capture.events) {
        switch (ev.kind) {
          case EventKind::CmdPrecharge:
          case EventKind::CmdActivate:
          case EventKind::CmdRead:
          case EventKind::CmdWrite:
          case EventKind::Refresh:
            commands.push_back(ev);
            break;
          default:
            break;
        }
    }

    DramReplay out;
    out.commands = commands.size();
    const auto start = Clock::now();
    for (const TraceEvent &ev : commands) {
        padc::dram::Channel &channel = dram.channel(ev.channel);
        const Cycle now = ev.cycle;
        switch (ev.kind) {
          case EventKind::CmdPrecharge:
            out.illegal += !channel.canPrecharge(ev.bank, now);
            channel.precharge(ev.bank, now);
            break;
          case EventKind::CmdActivate:
            out.illegal += !channel.canActivate(ev.bank, now);
            channel.activate(ev.bank, ev.row, now);
            break;
          case EventKind::CmdRead:
          case EventKind::CmdWrite: {
            const bool is_write = ev.kind == EventKind::CmdWrite;
            out.illegal += !channel.canColumn(ev.bank, is_write, now);
            channel.column(ev.bank, is_write, false, now);
            break;
          }
          default:
            out.illegal += !channel.refreshDue(now);
            channel.refresh(now);
            break;
        }
    }
    out.host_s = secondsSince(start);
    out.stats = dram.totalStats();
    return out;
}

namespace
{

/** What the functional pass recorded for the two timed passes. */
struct Observed
{
    Addr addr = 0;
    Addr pc = 0;
    bool miss = false;
    std::uint32_t first_candidate = 0; ///< index into the candidate list
    std::uint32_t num_candidates = 0;
};

/** A prefetch candidate and whether the replay filled it. */
struct Candidate
{
    Addr addr = 0;
    bool fill = false;
};

/**
 * One core's private L1/L2/MSHR with instant fills, mirroring the
 * hit/miss/fill/writeback decisions of System::access.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const padc::sim::SystemConfig &config)
        : l1_(config.l1, "l1"), l2_(config.l2, "l2"),
          mshr_(config.mshr_per_l2)
    {
    }

    /**
     * One demand access, with @p retries repeated lookups first when it
     * misses. Returns whether it reached the L2 and whether it missed.
     */
    bool access(const CapturedOp &op, std::uint64_t retries,
                bool *reached_l2)
    {
        ++stats_.accesses;
        if (padc::cache::Line *line = l1_.access(op.addr)) {
            if (!op.is_load)
                line->dirty = true;
            *reached_l2 = false;
            return false;
        }
        *reached_l2 = true;
        ++stats_.l2_accesses;
        const Addr line_addr = padc::lineAlign(op.addr);
        padc::cache::Line *line = l2_.access(op.addr);
        if (line != nullptr) {
            line->prefetched = false;
            fillL1(line_addr, !op.is_load);
            return false;
        }
        ++stats_.l2_misses;
        for (std::uint64_t r = 0; r < retries; ++r) {
            l1_.access(op.addr);
            l2_.access(op.addr);
            mshr_.find(line_addr);
        }
        stats_.accesses += retries;
        stats_.l2_accesses += retries;
        fillL2(line_addr, op.pc, false);
        fillL1(line_addr, !op.is_load);
        return true;
    }

    /** Whether a prefetch of @p addr would be issued at all. */
    bool wantsPrefetch(Addr addr) const
    {
        const Addr line_addr = padc::lineAlign(addr);
        return !l2_.probe(line_addr) && mshr_.find(line_addr) == nullptr;
    }

    void prefetch(Addr addr, Addr pc)
    {
        fillL2(padc::lineAlign(addr), pc, true);
    }

    CacheReplay stats() const
    {
        CacheReplay s = stats_;
        s.l2_fills = l2_.stats().fills;
        return s;
    }

  private:
    void fillL2(Addr line_addr, Addr pc, bool prefetched)
    {
        mshr_.alloc(line_addr);
        const padc::cache::EvictResult ev =
            l2_.fill(line_addr, 0, pc, prefetched, false, 0);
        if (ev.valid)
            l1_.invalidate(ev.line_addr);
        mshr_.release(line_addr);
    }

    void fillL1(Addr line_addr, bool dirty)
    {
        if (padc::cache::Line *existing = l1_.peek(line_addr)) {
            existing->dirty = existing->dirty || dirty;
            return;
        }
        const padc::cache::EvictResult ev =
            l1_.fill(line_addr, 0, 0, false, false, 0);
        if (ev.valid && ev.dirty) {
            if (padc::cache::Line *l2_line = l2_.peek(ev.line_addr))
                l2_line->dirty = true;
        }
        if (dirty)
            l1_.peek(line_addr)->dirty = true;
    }

    padc::cache::SetAssocCache l1_;
    padc::cache::SetAssocCache l2_;
    padc::cache::MshrFile mshr_;
    CacheReplay stats_;
};

/** Retries for demand miss @p k of @p misses, spreading @p total evenly. */
std::uint64_t
retriesFor(std::uint64_t k, std::uint64_t misses, std::uint64_t total)
{
    return misses == 0 ? 0
                       : (k + 1) * total / misses - k * total / misses;
}

} // namespace

void
replayHierarchy(const Capture &capture, CacheReplay *cache,
                PrefetchReplay *prefetch)
{
    const padc::sim::SystemConfig &config = capture.config;
    const bool prefetching = config.prefetch_enabled;
    *cache = {};
    *prefetch = {};

    // Lines each core's prefetches filled in the run (promoted or not),
    // and the lookups that found their line already in flight: issue
    // retries plus MSHR coalesces.
    std::vector<std::unordered_map<Addr, std::uint32_t>> filled(
        capture.ops.size());
    std::vector<std::uint64_t> repeats = capture.retries;
    for (const TraceEvent &ev : capture.events) {
        if (ev.kind == EventKind::Complete &&
            (ev.flags & TraceEvent::kWasPrefetch) != 0)
            ++filled[ev.core][ev.addr];
        else if (ev.kind == EventKind::MshrCoalesce)
            ++repeats[ev.core];
    }

    for (std::size_t core = 0; core < capture.ops.size(); ++core) {
        const std::vector<CapturedOp> &ops = capture.ops[core];
        // Functional pass: caches and prefetcher together, untimed.
        std::vector<Observed> observed;
        std::vector<Candidate> candidates;
        std::uint64_t misses = 0;
        {
            Hierarchy hierarchy(config);
            std::unique_ptr<padc::prefetch::Prefetcher> prefetcher;
            if (prefetching)
                prefetcher = padc::prefetch::makePrefetcher(config.prefetcher);
            std::vector<Addr> out;
            for (const CapturedOp &op : ops) {
                bool reached_l2 = false;
                const bool miss = hierarchy.access(op, 0, &reached_l2);
                misses += miss;
                if (!reached_l2 || !prefetching)
                    continue;
                out.clear();
                prefetcher->observe(op.addr, op.pc, miss, false, out);
                observed.push_back(
                    {op.addr, op.pc, miss,
                     static_cast<std::uint32_t>(candidates.size()),
                     static_cast<std::uint32_t>(out.size())});
                for (const Addr addr : out) {
                    bool fill = false;
                    if (hierarchy.wantsPrefetch(addr)) {
                        auto it = filled[core].find(padc::lineAlign(addr));
                        fill = it != filled[core].end() && it->second > 0;
                        if (fill) {
                            --it->second;
                            hierarchy.prefetch(addr, op.pc);
                        }
                    }
                    candidates.push_back({addr, fill});
                }
            }
        }

        // Timed cache pass: the same decisions, candidates from the record.
        {
            Hierarchy hierarchy(config);
            const std::uint64_t retries = repeats[core];
            std::size_t next = 0;
            std::uint64_t miss_index = 0;
            const auto start = Clock::now();
            for (const CapturedOp &op : ops) {
                bool reached_l2 = false;
                const bool miss = hierarchy.access(
                    op, retriesFor(miss_index, misses, retries),
                    &reached_l2);
                miss_index += miss;
                if (!reached_l2 || !prefetching)
                    continue;
                const Observed &obs = observed[next++];
                for (std::uint32_t c = 0; c < obs.num_candidates; ++c) {
                    const Candidate &cand =
                        candidates[obs.first_candidate + c];
                    if (hierarchy.wantsPrefetch(cand.addr) && cand.fill)
                        hierarchy.prefetch(cand.addr, op.pc);
                }
            }
            cache->host_s += secondsSince(start);
            const CacheReplay s = hierarchy.stats();
            cache->accesses += s.accesses;
            cache->l2_accesses += s.l2_accesses;
            cache->l2_misses += s.l2_misses;
            cache->l2_fills += s.l2_fills;
        }

        // Timed prefetch pass: observe alone, on a fresh prefetcher.
        if (prefetching) {
            std::unique_ptr<padc::prefetch::Prefetcher> prefetcher =
                padc::prefetch::makePrefetcher(config.prefetcher);
            std::vector<Addr> out;
            const auto start = Clock::now();
            for (const Observed &obs : observed) {
                out.clear();
                prefetcher->observe(obs.addr, obs.pc, obs.miss, false, out);
                prefetch->candidates += out.size();
            }
            prefetch->host_s += secondsSince(start);
            prefetch->observes += observed.size();
        }
    }
}

} // namespace perfbench
