/**
 * @file
 * Simulator micro-benchmarks (google-benchmark): throughput of the hot
 * components -- the DRAM channel command loop, the cache lookup path,
 * the stream prefetcher, the synthetic generator, the memory-controller
 * scheduling loop (at several queue depths), the parallel sweep runner,
 * a full single-core simulation step, and end-to-end System::run
 * throughput on one and four cores.
 *
 * Unless the caller passes its own --benchmark_out, results are also
 * written to BENCH_simspeed.json in the working directory.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/controller.hh"
#include "obs/metrics.hh"
#include "prefetch/stream_prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "telemetry/telemetry.hh"
#include "trace/format.hh"
#include "workload/generator.hh"
#include "workload/trace_profile.hh"

namespace
{

using namespace padc;

void
BM_ChannelRowHitReads(benchmark::State &state)
{
    dram::TimingParams timing;
    dram::Channel channel(timing, 8);
    channel.activate(0, 1, 0);
    Cycle t = timing.toCpu(timing.tRCD);
    for (auto _ : state) {
        while (!channel.canColumn(0, false, t))
            t += timing.cpu_per_dram_cycle;
        benchmark::DoNotOptimize(channel.column(0, false, false, t));
    }
}
BENCHMARK(BM_ChannelRowHitReads);

void
BM_CacheAccessHit(benchmark::State &state)
{
    cache::CacheConfig cfg;
    cfg.size_bytes = 512 * 1024;
    cfg.ways = 8;
    cache::SetAssocCache cache(cfg, "bench");
    for (Addr a = 0; a < 256 * kLineBytes; a += kLineBytes)
        cache.fill(a, 0, 0, false, false, 0);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr + kLineBytes) % (256 * kLineBytes);
    }
}
BENCHMARK(BM_CacheAccessHit);

void
BM_StreamPrefetcherObserve(benchmark::State &state)
{
    prefetch::PrefetcherConfig cfg;
    prefetch::StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    Addr line = 0;
    for (auto _ : state) {
        out.clear();
        pf.observe(lineToAddr(line++), 0x400, true, false, out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_StreamPrefetcherObserve);

void
BM_SyntheticTraceNext(benchmark::State &state)
{
    workload::TraceParams params;
    params.seed = 7;
    workload::SyntheticTrace trace(params);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace.next().addr);
}
BENCHMARK(BM_SyntheticTraceNext);

/**
 * Decode throughput of the compressed PADCTRC2 format (delta + varint
 * blocks, full checksum verification) -- the replay-side cost a
 * trace-backed workload pays per simulated op.
 */
void
BM_TraceDecode(benchmark::State &state)
{
    workload::TraceParams params;
    params.seed = 13;
    workload::SyntheticTrace generator(params);
    std::vector<core::TraceOp> written;
    for (int i = 0; i < 100000; ++i)
        written.push_back(generator.next());

    const std::string path = "/tmp/padc_bench_v2.trc";
    std::string error;
    if (!trace::writeTraceFileV2(path, written, &error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    for (auto _ : state) {
        std::vector<core::TraceOp> ops;
        if (!trace::readTraceFileV2(path, &ops, &error))
            state.SkipWithError(error.c_str());
        benchmark::DoNotOptimize(ops.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(written.size()));
    std::remove(path.c_str());
}
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);

/** Discards completions; the scheduler benchmarks only need DRAM work. */
class NullHandler : public memctrl::ResponseHandler
{
  public:
    void dramReadComplete(const memctrl::Request &, Cycle) override {}
    void dramPrefetchDropped(const memctrl::Request &, Cycle) override {}
};

/**
 * Reusable scheduler workload: a controller whose read queue is held at
 * a fixed depth of pseudo-random requests (mixing row hits and
 * conflicts across all banks), stepped one DRAM command clock per
 * tick. Shared by the scheduling micro-benchmarks and the telemetry
 * overhead check.
 */
struct SchedulerLoad
{
    static constexpr std::uint32_t kCores = 4;

    dram::TimingParams timing;
    dram::Channel channel{timing, 8};
    dram::Geometry geometry;
    dram::AddressMap map{geometry};
    memctrl::AccuracyTracker tracker;
    NullHandler handler;
    memctrl::MemoryController ctrl;

    std::size_t depth;
    std::uint64_t line = 1;
    std::uint64_t n = 0;
    Cycle now = 0;

    static memctrl::AccuracyConfig
    accuracyConfig()
    {
        memctrl::AccuracyConfig acfg;
        acfg.interval = 1000000; // static accuracy during the benchmark
        acfg.initial_accuracy = 1.0;
        return acfg;
    }

    static memctrl::SchedulerConfig
    schedConfig()
    {
        memctrl::SchedulerConfig cfg;
        cfg.kind = SchedPolicyKind::Aps;
        cfg.apd_enabled = false;
        cfg.request_buffer_size = 256;
        return cfg;
    }

    explicit SchedulerLoad(std::size_t queue_depth)
        : tracker(kCores, accuracyConfig()),
          ctrl(schedConfig(), channel, tracker, handler, kCores),
          depth(queue_depth)
    {
        topUp();
    }

    void
    topUp()
    {
        while (ctrl.readQueueSize() < depth) {
            line = line * 2862933555777941757ULL + 3037000493ULL;
            const Addr addr = lineToAddr(line % 4096);
            ctrl.enqueueRead(map.map(addr), lineAlign(addr),
                             static_cast<CoreId>(n % kCores), 0x400,
                             (n & 1) != 0
                                 ? RequestClass::Prefetch
                                 : RequestClass::DemandRead,
                             now);
            ++n;
        }
    }

    /** One scheduling round (complete + schedule + issue) and refill. */
    void
    tick()
    {
        ctrl.tick(now);
        now += timing.cpu_per_dram_cycle;
        topUp();
    }
};

/**
 * Cost of one controller DRAM cycle with the read queue held at
 * state.range(0) outstanding requests.
 */
void
BM_ScheduleRead(benchmark::State &state)
{
    SchedulerLoad load(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        load.tick();
    benchmark::DoNotOptimize(load.ctrl.stats().demand_reads);
}
BENCHMARK(BM_ScheduleRead)->Arg(4)->Arg(32)->Arg(128);

/**
 * Same scheduling loop with a request trace attached in count-only mode
 * (limit 0): every hook fires but nothing is stored. Compare against
 * BM_ScheduleRead at the same depth to see the full tracing toll; the
 * compiled-in-but-disabled cost is asserted by
 * --telemetry-overhead-check below.
 */
void
BM_ScheduleReadTelemetry(benchmark::State &state)
{
    SchedulerLoad load(static_cast<std::size_t>(state.range(0)));
    telemetry::TraceBuffer trace(0);
    load.ctrl.setTrace(&trace, 0);
    for (auto _ : state)
        load.tick();
    benchmark::DoNotOptimize(trace.seen());
}
BENCHMARK(BM_ScheduleReadTelemetry)->Arg(4)->Arg(32)->Arg(128);

/**
 * A small (policy x mix) sweep through the shared thread pool; compare
 * against BM_SingleCoreSimulation-style serial cost to see the fan-out
 * win (thread count via PADC_THREADS).
 */
void
BM_ParallelSweep(benchmark::State &state)
{
    const sim::SystemConfig base = sim::SystemConfig::baseline(2);
    sim::RunOptions opt;
    opt.instructions = 5000;
    opt.warmup = 0;
    const std::vector<workload::Mix> mixes = {
        {"libquantum_06", "milc_06"},
        {"swim_00", "omnetpp_06"},
    };
    std::vector<sim::SweepPoint> points;
    for (const auto setup :
         {sim::PolicySetup::DemandFirst, sim::PolicySetup::ApsOnly,
          sim::PolicySetup::Padc}) {
        for (std::size_t i = 0; i < mixes.size(); ++i) {
            sim::RunOptions point_opt = opt;
            point_opt.mix_seed = i;
            points.push_back(
                {sim::applyPolicy(base, setup), mixes[i], point_opt});
        }
    }
    for (auto _ : state) {
        const auto results = sim::runSweep(points, sim::sharedRunner());
        benchmark::DoNotOptimize(results.size());
    }
}
BENCHMARK(BM_ParallelSweep)->Unit(benchmark::kMillisecond);

void
BM_SingleCoreSimulation(benchmark::State &state)
{
    // Cost of simulating 10K instructions of libquantum under PADC.
    const sim::SystemConfig cfg = sim::applyPolicy(
        sim::SystemConfig::baseline(1), sim::PolicySetup::Padc);
    for (auto _ : state) {
        sim::RunOptions opt;
        opt.instructions = 10000;
        opt.warmup = 0;
        benchmark::DoNotOptimize(
            sim::runMix(cfg, {"libquantum_06"}, opt).cores[0].ipc);
    }
}
BENCHMARK(BM_SingleCoreSimulation)->Unit(benchmark::kMillisecond);

/**
 * Registers (once) the serial pointer-chase profile the idle-heavy
 * end-to-end benchmark runs: fully dependent loads striding randomly
 * through a working set far larger than the L2, one access per line,
 * no compute between them -- the lat_mem_rd idiom. Every load is an L2 miss whose address hangs
 * off the previous one, so the core sits in a DRAM-latency-bound stall
 * loop and almost every simulated cycle is dead time. Registered under
 * a bench-local name so the builtin profile table (and with it
 * randomMixes and every figure) is untouched.
 */
const char *
pointerChaseProfile()
{
    static const char *name = [] {
        workload::TraceParams p;
        p.seed = 41;
        p.avg_gap = 0;
        p.store_fraction = 0.0;
        p.dependent_fraction = 1.0;
        p.working_set_bytes = 8ULL << 20;
        p.accesses_per_line = 1;
        p.phases[0].seq_fraction = 0.0;
        p.phases[0].stride_fraction = 0.0;
        p.phases[0].burst_lines = 1;
        p.phases[0].revisit_fraction = 0.0;
        p.phases[0].concurrent_runs = 1;
        workload::registerTraceProfile("bench_pchase", [p] {
            return std::make_unique<workload::SyntheticTrace>(p);
        });
        return "bench_pchase";
    }();
    return name;
}

/**
 * Full System::run throughput (sim-cycles/sec counter), cycle-by-cycle
 * (BM_EndToEnd) vs. the event-driven next-event loop
 * (BM_EndToEndEventDriven). Arg 0 is an idle-heavy serial pointer chase
 * (bench_pchase, prefetcher off) where nearly every cycle is a dead
 * wait on a dependent DRAM miss; Arg 1 is a saturated streaming profile
 * (libquantum_06) where nearly every cycle does work. Both are short
 * single-core runs (~14k sim-cycles on Arg 1), so System construction
 * weighs on them. Compare the pair at the same arg: the idle-heavy arg
 * shows the skipping win, the saturated arg bounds its overhead when
 * there is nothing to skip. Arg 2 (event-driven only) is a four-core
 * saturated mix of prefetch-friendly profiles, long enough that the
 * controller's deep-queue scheduling, not construction, dominates.
 */
void
endToEnd(benchmark::State &state, bool event_skip)
{
    const std::int64_t arm = state.range(0);
    const bool four_core = arm == 2;
    sim::SystemConfig cfg = sim::applyPolicy(
        sim::SystemConfig::baseline(four_core ? 4 : 1),
        sim::PolicySetup::Padc);
    cfg.event_skip = event_skip;
    workload::Mix mix = {"libquantum_06"};
    if (arm == 0) {
        // No prefetcher: a stream prefetcher keeps the channel busy
        // between the dependent misses, and the chase defeats it
        // anyway (random next-line, one access per line).
        cfg.prefetch_enabled = false;
        mix = {pointerChaseProfile()};
    } else if (four_core) {
        mix = {"libquantum_06", "swim_00", "lbm_06", "bwaves_06"};
    }
    sim::RunOptions opt;
    opt.instructions = four_core ? 60000 : 15000;
    opt.warmup = 0;
    std::uint64_t total_cycles = 0;
    for (auto _ : state) {
        sim::RunStatus status;
        benchmark::DoNotOptimize(
            sim::runMix(cfg, mix, opt, &status).cores[0].ipc);
        total_cycles += status.cycles;
    }
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}

void
BM_EndToEnd(benchmark::State &state)
{
    endToEnd(state, false);
}
BENCHMARK(BM_EndToEnd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void
BM_EndToEndEventDriven(benchmark::State &state)
{
    endToEnd(state, true);
}
BENCHMARK(BM_EndToEndEventDriven)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- telemetry overhead check ---------------------------------------

/** Wall seconds for @p ticks scheduler rounds, optionally traced. */
double
timedRounds(std::uint64_t ticks, telemetry::TraceBuffer *trace)
{
    SchedulerLoad load(32);
    if (trace != nullptr)
        load.ctrl.setTrace(trace, 0);
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ticks; ++i)
        load.tick();
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(load.ctrl.stats().demand_reads);
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * Assert that telemetry compiled in but *disabled* (no sinks attached:
 * every hook is one untaken null test) stays within measurement noise
 * of itself, and that even count-only tracing -- every hook firing,
 * nothing stored -- stays within a generous noise bound of the
 * disabled path. The rounds are interleaved so frequency drift hits
 * all variants alike, and each variant takes the median of its rounds.
 *
 * Off by default: only runs under --telemetry-overhead-check, because
 * a timing assertion has no place in a normal benchmark invocation
 * (and is meaningless under sanitizers).
 *
 * @return process exit code (0 = within noise)
 */
int
telemetryOverheadCheck()
{
    constexpr std::uint64_t kTicks = 200000;
    constexpr int kRounds = 9;
    constexpr double kNoiseBound = 1.30;

    // Warm both paths (page faults, branch predictors, allocator).
    telemetry::TraceBuffer warm(0);
    timedRounds(kTicks / 4, nullptr);
    timedRounds(kTicks / 4, &warm);

    std::vector<double> disabled_a, disabled_b, counted;
    for (int round = 0; round < kRounds; ++round) {
        disabled_a.push_back(timedRounds(kTicks, nullptr));
        telemetry::TraceBuffer trace(0);
        counted.push_back(timedRounds(kTicks, &trace));
        disabled_b.push_back(timedRounds(kTicks, nullptr));
    }
    const auto median = [](std::vector<double> &v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double a = median(disabled_a);
    const double b = median(disabled_b);
    const double t = median(counted);

    const double aa_ratio = std::max(a, b) / std::min(a, b);
    const double traced_ratio = t / std::min(a, b);
    std::printf("telemetry-overhead-check: disabled %.4fs / %.4fs "
                "(A/A ratio %.3f), count-only traced %.4fs "
                "(ratio %.3f), bound %.2f\n",
                a, b, aa_ratio, t, traced_ratio, kNoiseBound);

    if (aa_ratio > kNoiseBound) {
        std::fprintf(stderr,
                     "telemetry-overhead-check: FAIL: disabled-path A/A "
                     "ratio %.3f exceeds %.2f -- the disabled hooks are "
                     "not branch-cheap (or the machine is too noisy to "
                     "measure)\n",
                     aa_ratio, kNoiseBound);
        return 1;
    }
    if (traced_ratio > kNoiseBound) {
        std::fprintf(stderr,
                     "telemetry-overhead-check: FAIL: count-only tracing "
                     "ratio %.3f exceeds %.2f\n",
                     traced_ratio, kNoiseBound);
        return 1;
    }
    std::printf("telemetry-overhead-check: PASS\n");
    return 0;
}

// --- metrics-registry overhead check ---------------------------------

/**
 * Wall seconds for @p ticks scheduler rounds, optionally bumping a
 * MetricsRegistry counter and sampling an AtomicHistogram every tick --
 * a deliberately hotter loop than any real instrumentation site (the
 * pool samples per task, not per scheduler round).
 */
double
timedObsRounds(std::uint64_t ticks, obs::Counter *counter,
               obs::AtomicHistogram *histogram)
{
    SchedulerLoad load(32);
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ticks; ++i) {
        load.tick();
        if (counter != nullptr) {
            counter->inc();
            histogram->sample(i & 1023);
        }
    }
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(load.ctrl.stats().demand_reads);
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * Assert that the obs::MetricsRegistry hot path (relaxed atomic
 * counter increment + histogram sample, resolved once to stable
 * references) stays within measurement noise of the uninstrumented
 * loop, the same interleaved-median protocol as
 * --telemetry-overhead-check. Off by default for the same reasons.
 *
 * @return process exit code (0 = within noise)
 */
int
obsOverheadCheck()
{
    constexpr std::uint64_t kTicks = 200000;
    constexpr int kRounds = 9;
    constexpr double kNoiseBound = 1.30;

    obs::MetricsRegistry &registry = obs::MetricsRegistry::instance();
    obs::Counter &counter =
        registry.counter("bench_obs_ticks_total", "overhead-check ticks");
    obs::AtomicHistogram &histogram = registry.histogram(
        "bench_obs_tick_value", 128, 8, "overhead-check samples");

    // Warm both paths (page faults, branch predictors, allocator).
    timedObsRounds(kTicks / 4, nullptr, nullptr);
    timedObsRounds(kTicks / 4, &counter, &histogram);

    std::vector<double> plain_a, plain_b, metered;
    for (int round = 0; round < kRounds; ++round) {
        plain_a.push_back(timedObsRounds(kTicks, nullptr, nullptr));
        metered.push_back(timedObsRounds(kTicks, &counter, &histogram));
        plain_b.push_back(timedObsRounds(kTicks, nullptr, nullptr));
    }
    const auto median = [](std::vector<double> &v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double a = median(plain_a);
    const double b = median(plain_b);
    const double t = median(metered);

    const double aa_ratio = std::max(a, b) / std::min(a, b);
    const double metered_ratio = t / std::min(a, b);
    std::printf("obs-overhead-check: plain %.4fs / %.4fs "
                "(A/A ratio %.3f), metered %.4fs (ratio %.3f), "
                "bound %.2f, counter %llu\n",
                a, b, aa_ratio, t, metered_ratio, kNoiseBound,
                static_cast<unsigned long long>(counter.value()));

    if (aa_ratio > kNoiseBound) {
        std::fprintf(stderr,
                     "obs-overhead-check: FAIL: plain-path A/A ratio "
                     "%.3f exceeds %.2f -- the machine is too noisy to "
                     "measure\n",
                     aa_ratio, kNoiseBound);
        return 1;
    }
    if (metered_ratio > kNoiseBound) {
        std::fprintf(stderr,
                     "obs-overhead-check: FAIL: metered ratio %.3f "
                     "exceeds %.2f -- the registry hot path is not "
                     "within noise\n",
                     metered_ratio, kNoiseBound);
        return 1;
    }
    std::printf("obs-overhead-check: PASS\n");
    return 0;
}

} // namespace

/**
 * Like BENCHMARK_MAIN(), but defaults --benchmark_out to
 * BENCH_simspeed.json (JSON format) when the caller did not pass one, so
 * a plain run always leaves a machine-readable record.
 */
int
main(int argc, char **argv)
{
    if (argc == 2 &&
        std::string(argv[1]) == "--telemetry-overhead-check") {
        return telemetryOverheadCheck();
    }
    if (argc == 2 && std::string(argv[1]) == "--obs-overhead-check") {
        return obsOverheadCheck();
    }
    std::vector<char *> args(argv, argv + argc);
    std::string out = "--benchmark_out=BENCH_simspeed.json";
    std::string fmt = "--benchmark_out_format=json";
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        has_out |= std::string(argv[i]).rfind("--benchmark_out=", 0) == 0;
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
