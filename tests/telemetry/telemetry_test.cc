/**
 * @file
 * Telemetry tests: TraceBuffer retention, IntervalSampler ring/delta
 * arithmetic, and the System-level golden checks -- a deterministic run
 * whose CSV PAR column matches the accuracy tracker at the final
 * interval, whose Chrome trace JSON parses and carries the required
 * members with monotonic per-track timestamps, and whose simulated
 * behaviour is bit-identical with telemetry attached and detached.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/json.hh"
#include "sim/system.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace padc::telemetry
{
namespace
{

TEST(TelemetryConfig, AnyReflectsEnabledSinks)
{
    TelemetryConfig config;
    EXPECT_FALSE(config.any());
    config.trace = true;
    EXPECT_TRUE(config.any());
    config.trace = false;
    config.timeseries = true;
    EXPECT_TRUE(config.any());
}

TEST(TraceBuffer, RetainsPrefixAndCountsOverflow)
{
    TraceBuffer buffer(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        TraceEvent event;
        event.cycle = i;
        buffer.record(event);
    }
    EXPECT_EQ(buffer.seen(), 5u);
    EXPECT_EQ(buffer.dropped(), 2u);
    ASSERT_EQ(buffer.events().size(), 3u);
    EXPECT_EQ(buffer.events()[0].cycle, 0u);
    EXPECT_EQ(buffer.events()[2].cycle, 2u); // kept prefix, in order
}

TEST(TraceBuffer, ZeroLimitCountsOnly)
{
    TraceBuffer buffer(0);
    buffer.record(TraceEvent{});
    buffer.record(TraceEvent{});
    EXPECT_EQ(buffer.seen(), 2u);
    EXPECT_EQ(buffer.dropped(), 2u);
    EXPECT_TRUE(buffer.events().empty());
}

TEST(IntervalSampler, ComputesIntervalDeltas)
{
    IntervalSampler sampler(16);
    std::vector<IntervalSampler::CoreSample> cores(1);
    std::vector<IntervalSampler::ChannelSample> channels(1);

    cores[0].par = 0.5;
    cores[0].sent = 10;
    cores[0].dropped = 0;
    cores[0].used = 4;
    channels[0].reads = 100;
    channels[0].writes = 20;
    channels[0].row_hits = 60;
    channels[0].row_reads = 100;
    channels[0].occupancy_sum = 500;
    channels[0].dram_cycles = 1000;
    sampler.sample(1000, cores, channels, /*busy_cycles_per_burst=*/2);

    cores[0].par = 0.25;
    cores[0].sent = 25;    // +15 this interval
    cores[0].dropped = 5;  // +5 -> interval psc 10
    cores[0].used = 9;     // +5 -> interval puc 5
    cores[0].drop_threshold = 300;
    channels[0].reads = 160;     // +60 bursts
    channels[0].writes = 60;     // +40 bursts
    channels[0].row_hits = 120;  // +60 hits ...
    channels[0].row_reads = 150; // ... of +50 reads with a row outcome
    channels[0].occupancy_sum = 1500; // +1000 over +500 DRAM cycles
    channels[0].dram_cycles = 1500;
    channels[0].write_queue = 7;
    sampler.sample(2000, cores, channels, 2);

    const auto rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    const IntervalRow &row = rows[1];
    EXPECT_EQ(row.cycle, 2000u);
    EXPECT_EQ(row.core, 0u);
    EXPECT_DOUBLE_EQ(row.par, 0.25);
    EXPECT_EQ(row.psc, 10u);
    EXPECT_EQ(row.puc, 5u);
    EXPECT_EQ(row.drop_threshold, 300u);
    EXPECT_EQ(row.sent, 25u);   // lifetime counters pass through
    EXPECT_EQ(row.used, 9u);
    EXPECT_EQ(row.dropped, 5u);
    // (60 + 40 bursts) * 2 busy cycles / 1000 elapsed cycles / 1 channel.
    EXPECT_DOUBLE_EQ(row.bus_util, 0.2);
    EXPECT_DOUBLE_EQ(row.row_hit_rate, 60.0 / 50.0);
    EXPECT_DOUBLE_EQ(row.read_queue, 2.0); // +1000 occupancy / +500 cycles
    EXPECT_EQ(row.write_queue, 7u);
}

TEST(IntervalSampler, RingKeepsNewestRows)
{
    IntervalSampler sampler(2);
    std::vector<IntervalSampler::CoreSample> cores(1);
    std::vector<IntervalSampler::ChannelSample> channels;
    for (Cycle cycle = 100; cycle <= 400; cycle += 100) {
        cores[0].sent = cycle;
        sampler.sample(cycle, cores, channels, 1);
    }
    EXPECT_EQ(sampler.pushed(), 4u);
    EXPECT_EQ(sampler.dropped(), 2u);
    const auto rows = sampler.rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].cycle, 300u); // ring: the tail of the run survives
    EXPECT_EQ(rows[1].cycle, 400u);
}

// --- System-level golden checks --------------------------------------

struct GoldenRun
{
    std::unique_ptr<Collector> collector; // null when telemetry detached
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    std::unique_ptr<sim::System> system;
};

/** One deterministic small PADC run, optionally with both sinks. */
GoldenRun
runGolden(bool with_telemetry)
{
    sim::SystemConfig config = sim::SystemConfig::baseline(2);

    GoldenRun run;
    if (with_telemetry) {
        TelemetryConfig tcfg;
        tcfg.timeseries = true;
        tcfg.trace = true;
        run.collector = std::make_unique<Collector>(tcfg);
        config.collector = run.collector.get();
    }

    const workload::Mix mix = {"mcf_06", "lbm_06"};
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < config.num_cores; ++c) {
        run.traces.push_back(std::make_unique<workload::SyntheticTrace>(
            workload::traceParamsFor(mix, c, /*seed=*/7)));
        sources.push_back(run.traces.back().get());
    }
    run.system = std::make_unique<sim::System>(config, std::move(sources));
    run.system->run(/*instructions_per_core=*/30000,
                    /*max_cycles=*/400000);
    return run;
}

TEST(TelemetryGolden, TimeseriesMatchesTrackerAtFinalInterval)
{
    const GoldenRun run = runGolden(true);
    const sim::System &system = *run.system;
    const IntervalSampler *sampler = run.collector->sampler();
    ASSERT_NE(sampler, nullptr);

    const auto rows = sampler->rows();
    const std::uint32_t cores = system.config().num_cores;
    ASSERT_GE(rows.size(), 2 * cores) << "run too short to sample";
    // One row per core per interval boundary the run crossed, in
    // (interval, core) order, at exactly every multiple of the accuracy
    // interval.
    const Cycle interval = system.config().sched.accuracy.interval;
    ASSERT_EQ(rows.size(), (system.cycles() - 1) / interval * cores);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].core, i % cores);
        EXPECT_EQ(rows[i].cycle, (i / cores + 1) * interval);
    }

    // The tracker is the PAR source of truth: the last sampled row per
    // core matches its end-of-run accuracy estimate exactly, because
    // PAR only changes at interval boundaries and every boundary is
    // sampled. The lifetime counters keep advancing between the last
    // boundary and the end of the run, so they are bounded, not equal.
    for (std::uint32_t c = 0; c < cores; ++c) {
        const IntervalRow &last = rows[rows.size() - cores + c];
        EXPECT_DOUBLE_EQ(last.par, system.tracker().accuracy(c));
        EXPECT_LE(last.sent, system.tracker().totalSent(c));
        EXPECT_LE(last.used, system.tracker().totalUsed(c));
        EXPECT_LE(last.dropped, system.tracker().totalDropped(c));
        EXPECT_GT(last.sent, 0u); // the mixes do prefetch
    }
}

TEST(TelemetryGolden, CsvParColumnRoundTrips)
{
    const GoldenRun run = runGolden(true);
    const std::string csv =
        timeseriesCsv({{"golden", run.collector->sampler()}});

    std::istringstream lines(csv);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    EXPECT_EQ(header,
              "point,label,cycle,core,par,psc,puc,drop_threshold,sent,"
              "used,dropped,bus_util,row_hit_rate,read_queue,write_queue,"
              "svc_demand_read,svc_prefetch,svc_writeback,svc_ptw_read,"
              "svc_dram_cache_fill");

    // The label "golden" needs no CSV quoting, so plain comma-splitting
    // is exact. Collect the last row per core and count data lines.
    std::map<std::string, std::vector<std::string>> last_row_for_core;
    std::size_t data_lines = 0;
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        ++data_lines;
        std::vector<std::string> fields;
        std::istringstream split(line);
        std::string field;
        while (std::getline(split, field, ','))
            fields.push_back(field);
        ASSERT_EQ(fields.size(), 15u + kRequestClassCount) << line;
        EXPECT_EQ(fields[0], "0");        // single point
        EXPECT_EQ(fields[1], "golden");
        last_row_for_core[fields[3]] = fields;
    }
    EXPECT_EQ(data_lines, run.collector->sampler()->rows().size());
    const std::uint32_t cores = run.system->config().num_cores;
    ASSERT_EQ(last_row_for_core.size(), cores);

    // PAR round-trips bit-exactly: jsonNumber emits shortest-round-trip
    // decimals, so strtod must reproduce the tracker's double -- this is
    // the golden check that the CSV PAR column IS the tracker accuracy
    // at the final interval. Integer columns round-trip via the rows.
    const auto rows = run.collector->sampler()->rows();
    for (std::uint32_t c = 0; c < cores; ++c) {
        const auto &fields = last_row_for_core[std::to_string(c)];
        const double par = std::strtod(fields[4].c_str(), nullptr);
        EXPECT_DOUBLE_EQ(par, run.system->tracker().accuracy(c)) << c;
        const IntervalRow &last = rows[rows.size() - cores + c];
        EXPECT_EQ(fields[2], std::to_string(last.cycle));
        EXPECT_EQ(fields[8], std::to_string(last.sent));
    }
}

TEST(TelemetryGolden, ChromeTraceJsonIsValidAndMonotonic)
{
    const GoldenRun run = runGolden(true);
    ASSERT_NE(run.collector->trace(), nullptr);
    EXPECT_GT(run.collector->trace()->seen(), 0u);

    const std::string json =
        chromeTraceJson({{"golden", run.collector->trace()}});
    exp::JsonValue root;
    std::string error;
    ASSERT_TRUE(exp::parseJson(json, &root, &error)) << error;
    ASSERT_TRUE(root.isObject());
    const exp::JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());

    std::map<std::pair<double, double>, double> last_instant_ts;
    std::size_t duration_events = 0;
    for (const exp::JsonValue &event : events->array) {
        ASSERT_TRUE(event.isObject());
        ASSERT_NE(event.find("name"), nullptr);
        ASSERT_NE(event.find("ph"), nullptr);
        ASSERT_NE(event.find("pid"), nullptr);
        ASSERT_NE(event.find("ts"), nullptr);
        const std::string &ph = event.find("ph")->string;
        if (ph != "M") { // process_name metadata has no thread track
            ASSERT_NE(event.find("tid"), nullptr);
        }
        const double ts = event.find("ts")->number;
        EXPECT_GE(ts, 0.0);
        if (ph == "X") {
            // Completed read: duration spans arrival -> completion.
            ++duration_events;
            ASSERT_NE(event.find("dur"), nullptr);
            EXPECT_GE(event.find("dur")->number, 0.0);
        } else if (ph == "i") {
            // Events are exported in buffer (record) order, so instants
            // on one track must have non-decreasing timestamps.
            const auto track =
                std::make_pair(event.find("pid")->number,
                               event.find("tid")->number);
            const auto it = last_instant_ts.find(track);
            if (it != last_instant_ts.end()) {
                EXPECT_GE(ts, it->second);
            }
            last_instant_ts[track] = ts;
        } else {
            EXPECT_EQ(ph, "M") << "unexpected phase " << ph;
        }
    }
    EXPECT_GT(duration_events, 0u); // reads completed during the run
}

TEST(TelemetryGolden, TraceEventClassAgreesWithFlagsAndNameTable)
{
    const GoldenRun run = runGolden(true);
    ASSERT_NE(run.collector->trace(), nullptr);
    const auto &events = run.collector->trace()->events();
    ASSERT_FALSE(events.empty());

    std::size_t prefetch_events = 0;
    for (const TraceEvent &event : events) {
        if (event.kind == EventKind::Refresh)
            continue; // channel-wide, no request attached
        // The class byte decodes to a real enumerator with a name-table
        // entry.
        const RequestClass cls = event.requestClass();
        ASSERT_LT(event.cls, kRequestClassCount);
        ASSERT_NE(toString(cls), "unknown");
        // The class column and the legacy flag bits tell one story.
        EXPECT_EQ((event.flags & TraceEvent::kPrefetch) != 0,
                  cls == RequestClass::Prefetch);
        EXPECT_EQ((event.flags & TraceEvent::kWrite) != 0,
                  cls == RequestClass::Writeback);
        prefetch_events += cls == RequestClass::Prefetch ? 1 : 0;
    }
    EXPECT_GT(prefetch_events, 0u); // the golden mixes do prefetch
}

TEST(TelemetryGolden, AttachedTelemetryDoesNotPerturbSimulation)
{
    const GoldenRun with = runGolden(true);
    const GoldenRun without = runGolden(false);
    EXPECT_EQ(with.system->cycles(), without.system->cycles());
    const StatSet a = with.system->exportStats();
    const StatSet b = without.system->exportStats();
    ASSERT_EQ(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
        EXPECT_DOUBLE_EQ(a.entries()[i].second, b.entries()[i].second)
            << a.entries()[i].first;
    }
}

} // namespace
} // namespace padc::telemetry
