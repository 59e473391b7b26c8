#include "telemetry/telemetry.hh"

#include <algorithm>

namespace padc::telemetry
{

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::Enqueue: return "enqueue";
      case EventKind::EnqueueWrite: return "enqueue_write";
      case EventKind::Coalesce: return "coalesce";
      case EventKind::Forward: return "forward";
      case EventKind::RejectFull: return "reject_full";
      case EventKind::Promote: return "promote";
      case EventKind::CmdPrecharge: return "PRE";
      case EventKind::CmdActivate: return "ACT";
      case EventKind::CmdRead: return "RD";
      case EventKind::CmdWrite: return "WR";
      case EventKind::Refresh: return "REF";
      case EventKind::Complete: return "complete";
      case EventKind::WriteRetire: return "write_retire";
      case EventKind::Drop: return "drop";
      case EventKind::MshrAlloc: return "mshr_alloc";
      case EventKind::MshrCoalesce: return "mshr_coalesce";
      case EventKind::MshrRelease: return "mshr_release";
    }
    return "?";
}

IntervalSampler::IntervalSampler(std::size_t max_rows)
    : max_rows_(std::max<std::size_t>(1, max_rows))
{
}

void
IntervalSampler::push(const IntervalRow &row)
{
    ++pushed_;
    if (ring_.size() < max_rows_) {
        ring_.push_back(row);
        return;
    }
    ring_[head_] = row;
    head_ = (head_ + 1) % max_rows_;
}

void
IntervalSampler::sample(Cycle now, const std::vector<CoreSample> &cores,
                        const std::vector<ChannelSample> &channels,
                        Cycle busy_cycles_per_burst)
{
    prev_cores_.resize(cores.size());
    prev_channels_.resize(channels.size());

    // Aggregate the channel-side deltas once; they are shared by every
    // core's row of this boundary.
    const Cycle delta_cycles = now - prev_cycle_;
    std::uint64_t bursts = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_reads = 0;
    double read_queue = 0.0;
    std::uint64_t write_queue = 0;
    std::array<std::uint64_t, kRequestClassCount> serviced_by_class{};
    for (std::size_t ch = 0; ch < channels.size(); ++ch) {
        const ChannelSample &cur = channels[ch];
        const ChannelSample &prev = prev_channels_[ch];
        bursts += (cur.reads - prev.reads) + (cur.writes - prev.writes);
        row_hits += cur.row_hits - prev.row_hits;
        row_reads += cur.row_reads - prev.row_reads;
        for (std::size_t cls = 0; cls < kRequestClassCount; ++cls) {
            serviced_by_class[cls] += cur.serviced_by_class[cls] -
                                      prev.serviced_by_class[cls];
        }
        const std::uint64_t dram_cycles =
            cur.dram_cycles - prev.dram_cycles;
        if (dram_cycles > 0) {
            read_queue +=
                static_cast<double>(cur.occupancy_sum -
                                    prev.occupancy_sum) /
                static_cast<double>(dram_cycles);
        }
        write_queue += cur.write_queue;
    }
    const double bus_util =
        delta_cycles > 0
            ? static_cast<double>(bursts * busy_cycles_per_burst) /
                  (static_cast<double>(delta_cycles) *
                   static_cast<double>(std::max<std::size_t>(
                       1, channels.size())))
            : 0.0;
    const double row_hit_rate =
        row_reads > 0 ? static_cast<double>(row_hits) /
                            static_cast<double>(row_reads)
                      : 0.0;

    for (std::size_t c = 0; c < cores.size(); ++c) {
        const CoreSample &cur = cores[c];
        const CoreSample &prev = prev_cores_[c];
        IntervalRow row;
        row.cycle = now;
        row.core = static_cast<std::uint32_t>(c);
        row.par = cur.par;
        const std::uint64_t sent = cur.sent - prev.sent;
        const std::uint64_t dropped = cur.dropped - prev.dropped;
        // Interval PSC follows the tracker's semantics: drops leave the
        // interval sent count (see AccuracyTracker's file comment).
        row.psc = sent > dropped ? sent - dropped : 0;
        row.puc = cur.used - prev.used;
        row.drop_threshold = cur.drop_threshold;
        row.sent = cur.sent;
        row.used = cur.used;
        row.dropped = cur.dropped;
        row.bus_util = bus_util;
        row.row_hit_rate = row_hit_rate;
        row.read_queue = read_queue;
        row.write_queue = write_queue;
        row.serviced_by_class = serviced_by_class;
        push(row);
    }

    prev_cycle_ = now;
    prev_cores_ = cores;
    prev_channels_ = channels;
}

std::vector<IntervalRow>
IntervalSampler::rows() const
{
    std::vector<IntervalRow> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

Collector::Collector(const TelemetryConfig &config) : config_(config)
{
    // Time-series rows retained per run; on overflow the oldest rows
    // are overwritten (ring semantics: the tail of the run survives).
    constexpr std::size_t kTimeseriesRows = 1u << 20;
    if (config_.timeseries)
        sampler_ = std::make_unique<IntervalSampler>(kTimeseriesRows);
    if (config_.trace)
        trace_ = std::make_unique<TraceBuffer>(config_.trace_limit);
}

} // namespace padc::telemetry
