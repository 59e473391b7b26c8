/**
 * @file
 * Simulation telemetry: interval time-series sampling and
 * request-lifecycle event tracing.
 *
 * The paper's mechanisms are interval-driven -- PAR is re-estimated
 * every accuracy interval and APD's drop threshold adapts to it -- so
 * end-of-run StatSet snapshots cannot show PAR converging, drops
 * clustering, or criticality flipping mid-run. This module records that
 * time-resolved behaviour through two sinks, both off by default:
 *
 *  - IntervalSampler: one row per (interval boundary, core) with the
 *    PAR/PSC/PUC estimate, the APD drop threshold in force, lifetime
 *    sent/used/dropped counters, and aggregate channel state (bus
 *    utilization, row-hit rate, queue depths), kept in a bounded ring.
 *  - TraceBuffer: a flat buffer of request-lifecycle events (enqueue,
 *    coalesce, promote, DRAM commands, complete, drop, MSHR
 *    transitions) with cycle timestamps and core/channel/bank/row tags.
 *
 * Hook sites hold a nullable TraceBuffer pointer and test it before
 * building an event, so compiled-in-but-disabled telemetry costs one
 * predictable branch per event site and nothing per cycle. A Collector
 * owns both sinks for one simulation run; SystemConfig carries a
 * non-owning Collector pointer that is excluded from validation and
 * sweep keys, so attaching telemetry never changes simulated behaviour
 * or journal identity.
 *
 * Exporters (CSV, Chrome trace JSON) live in telemetry/export.hh; the
 * wall-clock profiler in telemetry/profiler.hh. This module observes
 * one simulation from the inside; its sweep-level counterpart -- the
 * progress line a `padc run --progress` prints -- lives in src/obs/
 * (see obs/monitor.hh and DESIGN.md section 14).
 */

#ifndef PADC_TELEMETRY_TELEMETRY_HH
#define PADC_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace padc::telemetry
{

/** Which sinks a Collector instantiates, and their retention bounds. */
struct TelemetryConfig
{
    bool timeseries = false; ///< record interval time-series rows
    bool trace = false;      ///< record request-lifecycle events

    /** Events retained per run; later events are counted but not kept
        (keeps the beginning of the run, like a fixed trace buffer). */
    std::uint64_t trace_limit = 1u << 20;

    bool any() const { return timeseries || trace; }
};

/** Request-lifecycle event kinds, in pipeline order. */
enum class EventKind : std::uint8_t
{
    Enqueue,      ///< read accepted into the memory request buffer
    EnqueueWrite, ///< writeback accepted into the write queue
    Coalesce,     ///< duplicate read merged with the outstanding one
    Forward,      ///< read served from the write queue (no DRAM access)
    RejectFull,   ///< read rejected: request buffer full
    Promote,      ///< in-flight prefetch promoted to a demand
    CmdPrecharge, ///< PRE issued for the request
    CmdActivate,  ///< ACT issued for the request
    CmdRead,      ///< column read issued
    CmdWrite,     ///< column write issued
    Refresh,      ///< channel refresh (all banks)
    Complete,     ///< read data delivered (aux = arrival cycle)
    WriteRetire,  ///< writeback retired at column issue (aux = arrival)
    Drop,         ///< prefetch removed by APD (aux = arrival cycle)
    MshrAlloc,    ///< L2 miss allocated an MSHR entry
    MshrCoalesce, ///< demand attached to an in-flight miss
    MshrRelease,  ///< MSHR entry released (fill or drop)
};

/** Stable lower-case name of an event kind (trace export). */
const char *toString(EventKind kind);

/**
 * One recorded lifecycle event. Fixed-size POD so recording is a
 * bounds-checked vector push; interpretation of aux depends on kind
 * (arrival cycle for Complete/WriteRetire/Drop, 0 otherwise).
 */
struct TraceEvent
{
    static constexpr std::uint8_t kPrefetch = 1;    ///< P bit set
    static constexpr std::uint8_t kWasPrefetch = 2; ///< prefetcher-generated
    static constexpr std::uint8_t kRowHit = 4;      ///< serviced as row hit
    static constexpr std::uint8_t kWrite = 8;       ///< writeback request

    /** Bank tag of channel-wide events (refresh). */
    static constexpr std::uint16_t kNoBank = 0xFFFF;

    Cycle cycle = 0;         ///< when the event happened
    Addr addr = 0;           ///< line address (0 for channel events)
    std::uint64_t aux = 0;   ///< kind-dependent (see above)
    std::uint64_t row = 0;   ///< DRAM row index
    EventKind kind = EventKind::Enqueue;
    std::uint8_t core = 0;
    std::uint8_t channel = 0;
    std::uint8_t flags = 0;  ///< kPrefetch | kWasPrefetch | kRowHit | kWrite
    /** RequestClass enumerator value of the request (if any). */
    std::uint8_t cls = 0;
    std::uint16_t bank = 0;

    RequestClass requestClass() const
    {
        return static_cast<RequestClass>(cls);
    }
};

/**
 * Append-only event sink with a retention limit. Events past the limit
 * are counted (seen/dropped) but not stored, so the kept prefix stays
 * chronologically ordered and memory is bounded.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::uint64_t limit) : limit_(limit) {}

    void record(const TraceEvent &event)
    {
        ++seen_;
        if (events_.size() < limit_)
            events_.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events offered to the buffer, kept or not. */
    std::uint64_t seen() const { return seen_; }

    /** Events lost to the retention limit. */
    std::uint64_t dropped() const { return seen_ - events_.size(); }

  private:
    std::uint64_t limit_;
    std::uint64_t seen_ = 0;
    std::vector<TraceEvent> events_;
};

/** One time-series row: the state of one core at an interval boundary. */
struct IntervalRow
{
    Cycle cycle = 0;         ///< the interval boundary
    std::uint32_t core = 0;

    double par = 0.0;        ///< tracker PAR after the boundary update
    std::uint64_t psc = 0;   ///< prefetches sent this interval, minus drops
    std::uint64_t puc = 0;   ///< prefetches used this interval
    Cycle drop_threshold = 0; ///< APD threshold in force (0: APD off)

    std::uint64_t sent = 0;    ///< lifetime prefetches sent
    std::uint64_t used = 0;    ///< lifetime prefetches used
    std::uint64_t dropped = 0; ///< lifetime prefetches dropped by APD

    // Aggregated over all channels, identical across the interval's rows.
    double bus_util = 0.0;     ///< data-bus busy fraction this interval
    double row_hit_rate = 0.0; ///< row-hit fraction of reads serviced
    double read_queue = 0.0;   ///< mean read-buffer occupancy
    std::uint64_t write_queue = 0; ///< write-queue depth at the boundary

    /** Requests serviced this interval per RequestClass, summed over
        channels (same value on every core's row, like bus_util). */
    std::array<std::uint64_t, kRequestClassCount> serviced_by_class{};
};

/**
 * Builds IntervalRows from cumulative counters. The sampler stores the
 * previous boundary's totals and computes per-interval deltas itself,
 * so the simulator only hands over current lifetime counts -- no
 * interval bookkeeping leaks into the hot path. Rows are kept in a ring
 * of a fixed capacity (oldest overwritten first).
 */
class IntervalSampler
{
  public:
    /** Per-core cumulative inputs at a boundary. */
    struct CoreSample
    {
        double par = 0.0;
        std::uint64_t sent = 0;
        std::uint64_t used = 0;
        std::uint64_t dropped = 0;
        Cycle drop_threshold = 0;
    };

    /** Per-channel cumulative inputs at a boundary. */
    struct ChannelSample
    {
        std::uint64_t reads = 0;          ///< serviced read bursts
        std::uint64_t writes = 0;         ///< serviced write bursts
        std::uint64_t row_hits = 0;       ///< reads serviced as row hits
        std::uint64_t row_reads = 0;      ///< reads with a row outcome
        std::uint64_t occupancy_sum = 0;  ///< read-queue depth integral
        std::uint64_t dram_cycles = 0;    ///< DRAM cycles elapsed
        std::uint64_t write_queue = 0;    ///< instantaneous depth

        /** Lifetime serviced requests per RequestClass. */
        std::array<std::uint64_t, kRequestClassCount> serviced_by_class{};
    };

    explicit IntervalSampler(std::size_t max_rows);

    /**
     * Record one boundary: emits one row per core.
     * @param busy_cycles_per_burst CPU cycles the data bus is occupied
     *        per serviced burst (toCpu(tBURST)), for bus_util.
     */
    void sample(Cycle now, const std::vector<CoreSample> &cores,
                const std::vector<ChannelSample> &channels,
                Cycle busy_cycles_per_burst);

    /** Retained rows in chronological order (materialized copy). */
    std::vector<IntervalRow> rows() const;

    /** Rows recorded, kept or not. */
    std::uint64_t pushed() const { return pushed_; }

    /** Rows lost to the ring bound. */
    std::uint64_t dropped() const { return pushed_ - ring_.size(); }

  private:
    void push(const IntervalRow &row);

    std::size_t max_rows_;
    std::vector<IntervalRow> ring_;
    std::size_t head_ = 0; ///< oldest entry once the ring is full
    std::uint64_t pushed_ = 0;

    Cycle prev_cycle_ = 0;
    std::vector<CoreSample> prev_cores_;
    std::vector<ChannelSample> prev_channels_;
};

/**
 * Owns the sinks of one simulation run. Constructed by the driver (or a
 * test) per sweep point and attached via SystemConfig::collector; the
 * simulator only ever sees the nullable sink pointers.
 */
class Collector
{
  public:
    explicit Collector(const TelemetryConfig &config);

    const TelemetryConfig &config() const { return config_; }

    /** The time-series sink, or nullptr when not configured. */
    IntervalSampler *sampler() { return sampler_.get(); }
    const IntervalSampler *sampler() const { return sampler_.get(); }

    /** The event-trace sink, or nullptr when not configured. */
    TraceBuffer *trace() { return trace_.get(); }
    const TraceBuffer *trace() const { return trace_.get(); }

  private:
    TelemetryConfig config_;
    std::unique_ptr<IntervalSampler> sampler_;
    std::unique_ptr<TraceBuffer> trace_;
};

} // namespace padc::telemetry

#endif // PADC_TELEMETRY_TELEMETRY_HH
