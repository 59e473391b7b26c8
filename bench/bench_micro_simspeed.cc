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
#include "obs/monitor.hh"
#include "prefetch/stream_prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "telemetry/telemetry.hh"
#include "workload/generator.hh"

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
 * A small (policy x mix) sweep through a hardware-concurrency thread
 * pool; compare against BM_SingleCoreSimulation-style serial cost to
 * see the fan-out win.
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
    sim::ParallelExperimentRunner runner;
    for (auto _ : state) {
        const auto results = sim::runSweep(points, runner);
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
 * The serial pointer chase the idle-heavy end-to-end arm runs: fully
 * dependent loads striding randomly through a working set far larger
 * than the L2, one access per line, no compute between them -- the
 * lat_mem_rd idiom. Every load is an L2 miss whose address hangs off
 * the previous one, so the core sits in a DRAM-latency-bound stall
 * loop and almost every simulated cycle is dead time. The parameters
 * stay bench-local, so the builtin profile table (and with it
 * randomMixes and every figure) is untouched.
 */
workload::TraceParams
pointerChaseParams()
{
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
    return p;
}

/**
 * Full System::run throughput (sim-cycles/sec counter) of the
 * event-driven next-event loop. Arg 0 is an idle-heavy serial pointer
 * chase (pointerChaseParams, prefetcher off) where nearly every cycle
 * is a dead wait on a dependent DRAM miss, so the loop jumps most of
 * the run; Arg 1 is a saturated streaming profile (libquantum_06)
 * where nearly every cycle does work. Both are short single-core runs
 * (~14k sim-cycles on Arg 1), so System construction weighs on them.
 * Arg 2 is a four-core saturated mix of prefetch-friendly profiles,
 * long enough that the controller's deep-queue scheduling, not
 * construction, dominates. Each iteration builds the System from its
 * trace sources, runs it and collects its metrics, as perfbench's
 * serial points do.
 */
void
BM_EndToEndEventDriven(benchmark::State &state)
{
    const std::int64_t arm = state.range(0);
    const bool four_core = arm == 2;
    sim::SystemConfig cfg = sim::applyPolicy(
        sim::SystemConfig::baseline(four_core ? 4 : 1),
        sim::PolicySetup::Padc);
    workload::Mix mix = {"libquantum_06"};
    if (arm == 0) {
        // No prefetcher: a stream prefetcher keeps the channel busy
        // between the dependent misses, and the chase defeats it
        // anyway (random next-line, one access per line).
        cfg.prefetch_enabled = false;
    } else if (four_core) {
        mix = {"libquantum_06", "swim_00", "lbm_06", "bwaves_06"};
    }
    sim::RunOptions opt;
    opt.instructions = four_core ? 60000 : 15000;
    opt.warmup = 0;
    std::uint64_t total_cycles = 0;
    for (auto _ : state) {
        std::vector<std::unique_ptr<core::TraceSource>> traces;
        std::vector<core::TraceSource *> sources;
        for (std::uint32_t c = 0; c < mix.size(); ++c) {
            if (arm == 0) {
                traces.push_back(std::make_unique<workload::SyntheticTrace>(
                    pointerChaseParams()));
            } else {
                traces.push_back(
                    workload::makeTraceSource(mix, c, opt.mix_seed));
            }
            sources.push_back(traces.back().get());
        }
        sim::System system(cfg, sources);
        total_cycles +=
            system.run(opt.instructions, opt.max_cycles, opt.warmup).cycles;
        benchmark::DoNotOptimize(sim::collectMetrics(system).cores[0].ipc);
    }
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndEventDriven)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// --- overhead checks ------------------------------------------------

/**
 * The interleaved protocol both overhead checks share. Each of 9 rounds
 * times @p off, @p on, then @p off again and takes two ratios: A/A, the
 * slower off arm over the faster one, and on/off, the on arm over the
 * faster off arm. Pairing the arms within a round keeps a host that
 * changes speed mid-run from landing the two off arms' medians on
 * different sides of the change. The check fails when the median A/A
 * ratio exceeds the noise bound (the machine is too noisy to measure)
 * or the median on/off ratio does. One untimed call of each arm first
 * warms page faults, branch predictors and the allocator.
 *
 * Off by default: only --telemetry-overhead-check and
 * --obs-overhead-check run it, because a timing assertion has no place
 * in a normal benchmark invocation (and is meaningless under asan).
 *
 * @return process exit code (0 = within noise)
 */
template <typename Off, typename On>
int
overheadCheck(const char *check, const char *off_arm, const char *on_arm,
              Off &&off, On &&on)
{
    constexpr int kRounds = 9;
    constexpr double kNoiseBound = 1.30;

    off();
    on();
    std::vector<double> aa_ratios, on_ratios;
    for (int round = 0; round < kRounds; ++round) {
        const double a = off();
        const double t = on();
        const double b = off();
        aa_ratios.push_back(std::max(a, b) / std::min(a, b));
        on_ratios.push_back(t / std::min(a, b));
    }
    const auto median = [](std::vector<double> &v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double aa_ratio = median(aa_ratios);
    const double on_ratio = median(on_ratios);
    std::printf("%s: median of %d rounds: %s A/A ratio %.3f, %s ratio "
                "%.3f, bound %.2f\n",
                check, kRounds, off_arm, aa_ratio, on_arm, on_ratio,
                kNoiseBound);

    if (aa_ratio > kNoiseBound) {
        std::fprintf(stderr,
                     "%s: FAIL: %s A/A ratio %.3f exceeds %.2f -- the "
                     "machine is too noisy to measure\n",
                     check, off_arm, aa_ratio, kNoiseBound);
        return 1;
    }
    if (on_ratio > kNoiseBound) {
        std::fprintf(stderr, "%s: FAIL: %s ratio %.3f exceeds %.2f\n",
                     check, on_arm, on_ratio, kNoiseBound);
        return 1;
    }
    std::printf("%s: PASS\n", check);
    return 0;
}

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
 * nothing stored -- stays within the noise bound of the disabled path,
 * on the hot scheduling loop.
 */
int
telemetryOverheadCheck()
{
    const std::uint64_t ticks = 200000;
    return overheadCheck(
        "telemetry-overhead-check", "disabled", "count-only traced",
        [&] { return timedRounds(ticks, nullptr); },
        [&] {
            telemetry::TraceBuffer trace(0);
            return timedRounds(ticks, &trace);
        });
}

/**
 * Wall seconds for one sim::runSweep of @p points on @p runner. When
 * @p observed, the sweep runs the way `padc run --progress` runs it: a
 * FleetMonitor is built, installed, told sweepStarted and
 * sweepFinished, and torn down inside the timed window, so every hook
 * a point fires is paid for.
 */
double
timedSweep(const std::vector<sim::SweepPoint> &points,
           sim::ParallelExperimentRunner &runner, bool observed)
{
    const auto begin = std::chrono::steady_clock::now();
    std::unique_ptr<obs::FleetMonitor> monitor;
    if (observed) {
        monitor = std::make_unique<obs::FleetMonitor>();
        obs::setActiveMonitor(monitor.get());
        monitor->sweepStarted("obs_overhead", points.size());
    }
    const auto results = sim::runSweep(points, runner);
    if (monitor != nullptr) {
        monitor->sweepFinished();
        obs::setActiveMonitor(nullptr);
        monitor.reset();
    }
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(results.size());
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * Assert that the fleet monitor a `--progress` run installs (the stderr
 * progress line) stays within measurement noise of the same sweep
 * unobserved. The sweep is 64 short one-core PADC points on one
 * thread, so the per-point hooks weigh as much as they ever can; fewer
 * points make each timed arm short enough for host noise to swing the
 * A/A ratio past the bound.
 */
int
obsOverheadCheck()
{
    const sim::SystemConfig config = sim::applyPolicy(
        sim::SystemConfig::baseline(1), sim::PolicySetup::Padc);
    const std::vector<std::string> profiles = {
        "libquantum_06", "milc_06", "swim_00", "omnetpp_06"};
    std::vector<sim::SweepPoint> points(64);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].config = config;
        points[i].mix = {profiles[i % profiles.size()]};
        points[i].options.instructions = 5000;
        points[i].options.warmup = 0;
        points[i].options.mix_seed = i;
    }
    sim::ParallelExperimentRunner runner(1);
    return overheadCheck(
        "obs-overhead-check", "monitor off", "monitor on",
        [&] { return timedSweep(points, runner, false); },
        [&] { return timedSweep(points, runner, true); });
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
