/**
 * @file
 * Full-system assembly: cores, L1/L2 caches, MSHRs, prefetchers with
 * optional DDPF/FDP, the prefetch-accuracy tracker, and one memory
 * controller per DRAM channel.
 *
 * The System implements both sides of the glue:
 *  - core::MemoryPort (cores issue loads/stores into the hierarchy), and
 *  - memctrl::ResponseHandler (controllers report fills and drops).
 *
 * All of the paper's bookkeeping lives here: P-bit usefulness
 * resolution (PUC), prefetch promotion on demand match, bus-traffic
 * classification (demand / useful prefetch / useless prefetch /
 * writeback), RBHU accounting, the Fig. 4(a) service-time histograms,
 * and FDP's interval feedback.
 */

#ifndef PADC_SIM_SYSTEM_HH
#define PADC_SIM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/fields.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "dram/dram_system.hh"
#include "memctrl/accuracy_tracker.hh"
#include "memctrl/controller.hh"
#include "prefetch/ddpf.hh"
#include "prefetch/fdp.hh"
#include "prefetch/prefetcher.hh"
#include "telemetry/telemetry.hh"

namespace padc::sim
{

/** Complete system configuration. */
struct SystemConfig
{
    std::uint32_t num_cores = 4;

    core::CoreConfig core;
    cache::CacheConfig l1;
    cache::CacheConfig l2;

    /** Single L2 shared by all cores (paper Section 6.10). */
    bool shared_l2 = false;

    /** MSHR entries per L2 cache instance. */
    std::uint32_t mshr_per_l2 = 32;

    bool prefetch_enabled = true;
    prefetch::PrefetcherConfig prefetcher;

    bool ddpf_enabled = false;
    prefetch::DdpfConfig ddpf;

    bool fdp_enabled = false;
    prefetch::FdpConfig fdp;

    memctrl::SchedulerConfig sched;
    dram::DramConfig dram;

    /**
     * Optional telemetry collector (not owned; must outlive the System).
     * When set, the System attaches the collector's sinks: the request
     * trace hooks into every controller and channel, and the interval
     * sampler records one row per core at each FDP/accuracy interval
     * boundary. nullptr (the default) disables all telemetry with a
     * single pointer test per hook. Deliberately excluded from
     * validate() and from sweep point keys: it is an observer, not a
     * simulated parameter.
     */
    telemetry::Collector *collector = nullptr;

    /**
     * Event-driven main loop: when no component can act for a span of
     * cycles, System::run() jumps simulated time to the next event
     * instead of stepping every cycle. Results are bit-identical either
     * way (the EventSkip A/B suite runs both loops to prove exactly
     * that), so this knob -- like collector above -- is an execution
     * detail, not a simulated parameter: it is excluded from validate()
     * and from sweep point keys. false selects the cycle-by-cycle
     * reference loop.
     */
    bool event_skip = true;

    /**
     * Baseline configuration for an n-core CMP following paper Tables
     * 3/4: 32KB L1, 512KB private L2 per core (1MB for single core),
     * MSHR/request buffer 64/64/128/256 entries for 1/2/4/8 cores,
     * single DDR3 channel with 8 banks and 4KB rows, stream prefetcher,
     * PADC scheduling.
     */
    static SystemConfig baseline(std::uint32_t cores);

    /**
     * Check every cross-cutting and per-component constraint and return
     * the accumulated structured diagnostics (empty = valid). System's
     * constructor calls this and throws std::invalid_argument with
     * ConfigErrors::str() when it is non-empty, so misconfiguration
     * surfaces as one readable message naming each offending field
     * instead of an assert or silent corruption.
     */
    ConfigErrors validate() const;
};

/**
 * SystemConfig's field table; see common/fields.hh. Every row is a
 * simulated parameter, so the table is what the sweep key hashes and
 * what a worker receives. collector and event_skip have no row: both
 * are execution details that cannot change a result (see their
 * comments), so they are neither keyed nor sent.
 */
template <fields::Of<SystemConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("num_cores", s.num_cores);
    v("core", s.core);
    v("l1", s.l1);
    v("l2", s.l2);
    v("shared_l2", s.shared_l2);
    v("mshr_per_l2", s.mshr_per_l2);
    v("prefetch_enabled", s.prefetch_enabled);
    v("prefetcher", s.prefetcher);
    v("ddpf_enabled", s.ddpf_enabled);
    v("ddpf", s.ddpf);
    v("fdp_enabled", s.fdp_enabled);
    v("fdp", s.fdp);
    v("sched", s.sched);
    v("dram", s.dram);
}
static_assert(fields::complete<SystemConfig>(/*unlisted=*/2));

/**
 * Outcome of one System::run call. A core is "truncated" when the
 * cycle cap expired before it retired its instruction target; its
 * CoreResult then holds the frozen partial progress (done == false)
 * rather than converged end-of-run numbers.
 */
struct RunStatus
{
    std::uint64_t truncated_mask = 0; ///< bit i: core i hit the cap
    std::uint32_t cores_completed = 0;
    std::uint32_t cores_truncated = 0;
    Cycle cycles = 0;             ///< simulation time after the run
    std::uint64_t max_cycles = 0; ///< the cap this run was given

    bool converged() const { return cores_truncated == 0; }

    /** "" when converged; else e.g. "cores 1,3 hit the 100-cycle cap". */
    std::string detail() const;
};

/** Per-core traffic, usefulness, and RBHU counters. */
struct CoreMemStats
{
    std::uint64_t demand_fills = 0;     ///< lines fetched by demands
    std::uint64_t prefetch_fills = 0;   ///< lines fetched by prefetches
                                        ///< (including promoted ones)
    std::uint64_t useful_prefetch_fills = 0; ///< resolved useful
    std::uint64_t writebacks = 0;

    std::uint64_t l2_demand_accesses = 0;
    std::uint64_t l2_demand_misses = 0;

    std::uint64_t prefetches_issued = 0;   ///< entered the memory system
    std::uint64_t prefetch_candidates = 0; ///< emitted by the prefetcher
    std::uint64_t prefetches_filtered = 0; ///< dropped by DDPF
    std::uint64_t prefetches_no_room = 0;  ///< MSHR/buffer full

    std::uint64_t promotions = 0; ///< demand matched in-flight prefetch

    // RBHU (paper Section 6.1.1): row-hit status of useful requests.
    std::uint64_t useful_req_fills = 0;    ///< demands + useful prefetches
    std::uint64_t useful_req_row_hits = 0; ///< ... serviced as row-hits

    // RBH (paper Table 5): row-hit status of *all* serviced reads.
    std::uint64_t fills_total = 0;
    std::uint64_t fills_row_hit = 0;

    std::uint64_t pollution_misses = 0; ///< demand misses attributed to
                                        ///< prefetch-induced eviction
};

/** Frozen per-core results, captured when the core reaches its target. */
struct CoreResult
{
    bool done = false;
    Cycle done_cycle = 0;
    core::CoreStats core_stats;   ///< snapshot at completion
    CoreMemStats mem_stats;       ///< snapshot at completion
    std::uint64_t pref_sent = 0;  ///< lifetime PSC at completion
    std::uint64_t pref_used = 0;  ///< lifetime PUC at completion

    /** Snapshot when the core crossed the warm-up boundary. */
    bool warmed = false;
    Cycle warm_cycle = 0;
    core::CoreStats warm_core_stats;
    CoreMemStats warm_mem_stats;
    std::uint64_t warm_pref_sent = 0;
    std::uint64_t warm_pref_used = 0;
};

/**
 * The simulated CMP; see file comment.
 */
class System : public core::MemoryPort, public memctrl::ResponseHandler
{
  public:
    /**
     * @param config system configuration; SystemConfig::validate() is
     *        invoked and std::invalid_argument thrown on any violation
     * @param traces one trace source per core; not owned
     * @throws std::invalid_argument naming every invalid config field,
     *         or a trace count != num_cores
     */
    System(const SystemConfig &config,
           std::vector<core::TraceSource *> traces);

    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run until every core has retired @p instructions_per_core
     * instructions, or @p max_cycles elapses. Per-core results are
     * frozen the cycle each core reaches the target (the standard
     * multiprogrammed methodology); all cores keep executing until the
     * last one finishes so contention stays realistic.
     *
     * @param warmup_instructions per-core instruction count at which the
     *        warm-up snapshot is taken; metrics are computed over the
     *        [warmup, target] window (0 = measure from reset).
     *
     * @return per-run status distinguishing cores that reached the
     *         target from cores frozen at the cycle cap, so callers can
     *         report truncated (non-converged) runs instead of treating
     *         the frozen partial stats as converged results.
     */
    RunStatus run(std::uint64_t instructions_per_core,
                  std::uint64_t max_cycles,
                  std::uint64_t warmup_instructions = 0);

    // --- core::MemoryPort ---
    core::AccessReply access(CoreId core, Addr addr, Addr pc, bool is_load,
                             std::uint64_t token_tag, bool runahead,
                             Cycle now) override;

    // --- memctrl::ResponseHandler ---
    void dramReadComplete(const memctrl::Request &req, Cycle now) override;
    void dramPrefetchDropped(const memctrl::Request &req,
                             Cycle now) override;

    // --- results ---
    Cycle cycles() const { return now_; }
    const SystemConfig &config() const { return config_; }
    const CoreResult &result(CoreId core) const { return results_[core]; }
    const CoreMemStats &memStats(CoreId core) const { return mem_[core]; }
    const core::Core &coreModel(CoreId core) const { return *cores_[core]; }
    const memctrl::AccuracyTracker &tracker() const { return *tracker_; }
    const memctrl::MemoryController &controller(std::uint32_t i) const
    {
        return *controllers_[i];
    }
    std::uint32_t numControllers() const
    {
        return static_cast<std::uint32_t>(controllers_.size());
    }
    const dram::DramSystem &dramSystem() const { return *dram_; }
    const cache::SetAssocCache &l1(CoreId core) const
    {
        return *l1s_[core];
    }
    const cache::SetAssocCache &l2(std::uint32_t idx) const
    {
        return *l2s_[idx];
    }

    /** Fig. 4(a): service times of prefetches that proved useful. */
    const Histogram &usefulServiceHist() const { return useful_hist_; }

    /** Fig. 4(a): service times of prefetches that proved useless. */
    const Histogram &uselessServiceHist() const { return useless_hist_; }

    /**
     * Per-interval prefetch-accuracy samples of core 0 (Fig. 4(b)):
     * one (cycle, accuracy) pair per completed measurement interval.
     */
    const std::vector<std::pair<Cycle, double>> &accuracyTimeline() const
    {
        return accuracy_timeline_;
    }

    /**
     * Export every component's statistics as one flat, stably-ordered
     * name/value set ("core0.ipc", "ctrl0.prefetches_dropped",
     * "dram.activates", ...). Intended for tooling and regression
     * diffing; the typed accessors above remain the primary API.
     */
    StatSet exportStats() const;

    /**
     * Serviced requests per RequestClass, summed over all controllers
     * (indexed by enumerator value; reserved classes stay zero). Feeds
     * the per-class block of RunMetrics and the wire/journal codecs.
     */
    std::array<std::uint64_t, kRequestClassCount> classServiced() const;

  private:
    struct FdpState
    {
        std::unique_ptr<prefetch::FdpController> controller;
        std::unique_ptr<prefetch::PollutionFilter> pollution;
        prefetch::FdpController::IntervalCounts counts;
    };

    cache::SetAssocCache &l2For(CoreId core)
    {
        return *l2s_[config_.shared_l2 ? 0 : core];
    }
    cache::MshrFile &mshrFor(CoreId core)
    {
        return *mshrs_[config_.shared_l2 ? 0 : core];
    }
    memctrl::MemoryController &controllerFor(const dram::DramCoord &coord)
    {
        return *controllers_[coord.channel];
    }

    /** Fill the core's L1 with @p line_addr, handling dirty evictions. */
    void fillL1(CoreId core, Addr line_addr, bool dirty, Cycle now);

    /** Prefetched L2 line @p line_addr was referenced by a demand:
        resolve useful. */
    void resolveUseful(cache::Line &line, Addr line_addr);

    /** A still-unused prefetched line left the L2: resolve useless. */
    void resolveUseless(const cache::EvictResult &victim, Addr pc);

    /** Try to issue one prefetch candidate into the memory system. */
    void issuePrefetch(CoreId core, Addr addr, Addr pc, Cycle now);

    /**
     * An entry of the MSHR file serving @p core was released at @p now:
     * unpark every core that file parked (the owner for a private L2,
     * any core for a shared one) and make each retry this cycle.
     */
    void wakeParked(CoreId core, Cycle now);

    /**
     * Replay the skipped ticks of @p core in [idle_from_, @p until): the
     * core's own idle accounting and, while its issue stage is parked,
     * the hierarchy's counters of each bounce. Call before anything
     * reads those counters or changes the core's idle state.
     */
    void settleIdle(CoreId core, Cycle until);

    /** settleIdle() every core up to now_. */
    void settleAllIdle();

    /** FDP interval rollover and accuracy-timeline sampling. */
    void intervalTick(Cycle now);

    /** Push one interval sample per core into the telemetry collector. */
    void sampleTelemetry(Cycle now);

    /** Record an MSHR lifecycle event (no-op when untraced). */
    void traceMshr(telemetry::EventKind kind, CoreId core, Addr line_addr,
                   RequestClass cls, Cycle now);

    SystemConfig config_;

    std::unique_ptr<dram::DramSystem> dram_;
    std::unique_ptr<memctrl::AccuracyTracker> tracker_;
    std::vector<std::unique_ptr<memctrl::MemoryController>> controllers_;

    std::vector<std::unique_ptr<cache::SetAssocCache>> l1s_;
    std::vector<std::unique_ptr<cache::SetAssocCache>> l2s_;
    std::vector<std::unique_ptr<cache::MshrFile>> mshrs_;

    std::vector<std::unique_ptr<prefetch::Prefetcher>> prefetchers_;
    std::vector<std::unique_ptr<prefetch::DdpfFilter>> ddpf_;
    std::vector<FdpState> fdp_;

    std::vector<std::unique_ptr<core::Core>> cores_;
    std::vector<core::TraceSource *> traces_;

    std::vector<CoreMemStats> mem_;
    std::vector<CoreResult> results_;

    /**
     * Per-core cached next-event lower bound for the event-skip loop.
     * While core_next_[i] > now_, core i's tick this cycle is provably
     * a no-op (the same frozen-state invariant the next-event jump
     * rests on), so run() skips the tick and leaves its exact idle-stat
     * replay to settleIdle(). Reset to 0 ("must tick") whenever a DRAM
     * completion or drop touches the core from outside its own tick,
     * or an MSHR release unparks it (wakeParked).
     */
    std::vector<Cycle> core_next_;

    /**
     * Per-core first cycle neither ticked nor yet replayed: skipped
     * ticks are accounted lazily by settleIdle(), so a landed cycle
     * costs an idle core one compare.
     */
    std::vector<Cycle> idle_from_;

    Histogram useful_hist_;
    Histogram useless_hist_;
    std::vector<std::pair<Cycle, double>> accuracy_timeline_;
    Cycle next_interval_ = 0;

    std::vector<Addr> candidate_buf_; ///< reused prefetch candidate list

    telemetry::Collector *telem_ = nullptr; ///< nullptr = no telemetry
    /// Reused scratch for sampleTelemetry (avoids per-interval allocs).
    std::vector<telemetry::IntervalSampler::CoreSample> core_samples_;
    std::vector<telemetry::IntervalSampler::ChannelSample> chan_samples_;

    Cycle now_ = 0;
};

} // namespace padc::sim

#endif // PADC_SIM_SYSTEM_HH
