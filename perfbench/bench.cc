/**
 * @file
 * The simulator benchmark program: builds one workload from a seed,
 * runs its fixed work ("a pass") repeatedly for a given number of
 * seconds, checks every simulated result, and prints end-to-end metrics
 * (untraced) or a per-layer breakdown (traced). See README.md.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--refs DIR] [--write-refs]
 *             [--spans FILE]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "replay.hh"
#include "sim/experiment.hh"
#include "telemetry/export.hh"
#include "telemetry/profiler.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"

using namespace padc;
using perfbench::Capture;
using perfbench::CapturedOp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/**
 * This process's resident-set high-water mark. Read from /proc rather
 * than getrusage, whose maxrss survives exec and so would report the
 * launching interpreter's footprint.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

/**
 * Moves the calling thread across the CPUs it may run on. On a shared
 * machine one CPU can run markedly slower than the others for many
 * seconds; rotating repeated serial measurements over every CPU lets the
 * fastest (or median) repeat come from an unloaded one.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation() { restore(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the k-th allowed CPU (round robin); best effort. */
    void pin(std::size_t k)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    void restore()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of a sorted sample. */
template <typename T>
double
percentile(const std::vector<T> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return static_cast<double>(sorted[rank - 1]);
}

// --- result digest ----------------------------------------------------

class Digest
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string &s) { bytes(s.data(), s.size()); }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void
digestMetrics(Digest &d, const sim::RunMetrics &m)
{
    for (const sim::CoreMetrics &c : m.cores) {
        for (double v : {c.ipc, c.mpki, c.spl, c.acc, c.cov, c.rbh, c.rbhu})
            d.f64(v);
        for (std::uint64_t v :
             {c.traffic_demand, c.traffic_pref_useful,
              c.traffic_pref_useless, c.traffic_writeback, c.instructions,
              static_cast<std::uint64_t>(c.cycles)})
            d.u64(v);
    }
    for (std::uint64_t v : m.class_serviced)
        d.u64(v);
}

void
digestSummary(Digest &d, const sim::MultiCoreMetrics &s)
{
    for (double v : s.speedups)
        d.f64(v);
    d.f64(s.ws);
    d.f64(s.hs);
    d.f64(s.uf);
}

void
digestStats(Digest &d, const StatSet &stats)
{
    for (const auto &[name, value] : stats.entries()) {
        d.str(name);
        d.f64(value);
    }
}

// --- workloads --------------------------------------------------------

/** How a batch of points is executed. */
enum class BatchKind
{
    Serial,   ///< one System after another on the calling thread
    RunSweep, ///< sim::runSweep per point across the pool
    EvalSweep ///< alone-IPC prewarm, then sim::evaluateSweep per point
};

struct Point
{
    std::string id;
    sim::SweepPoint sweep;
};

struct Batch
{
    BatchKind kind = BatchKind::Serial;
    std::vector<Point> points;
    std::vector<workload::Mix> mixes; ///< multi-core: mix i has seed base+i
    std::uint64_t base_seed = 0;
};

struct Plan
{
    std::vector<Batch> batches;
    unsigned threads = 1;
    sim::SystemConfig alone_base; ///< alone-runs for weighted speedup
    sim::RunOptions alone_options;
};

struct Size
{
    std::uint32_t mix4_mixes;
    std::uint64_t mix4_insts;
    std::uint32_t sweep_profiles_per_class; ///< 0 = every profile
    std::uint64_t sweep_1c_insts;
    std::uint32_t sweep_2c_mixes;
    std::uint64_t sweep_2c_insts;
};

constexpr Size kFull{36, 15000, 0, 8000, 35, 15000};
constexpr Size kTiny{2, 4000, 2, 2000, 2, 3000};

const std::vector<std::string> kWorkloads = {"mix4_friendly",
                                             "mix4_unfriendly", "sweep_4t"};

/**
 * Every profile of @p pool, repeated to fill @p slots, in seeded order:
 * each profile appears equally often whenever slots is a multiple of the
 * pool size, so the work of a pass hardly depends on the seed.
 */
std::vector<std::string>
balancedDraw(const std::vector<std::string> &pool, std::size_t slots,
             Rng &rng)
{
    std::vector<std::string> out;
    while (out.size() < slots) {
        std::vector<std::string> round = pool;
        for (std::size_t i = round.size(); i > 1; --i)
            std::swap(round[i - 1], round[rng.nextBelow(i)]);
        for (auto &name : round) {
            if (out.size() < slots)
                out.push_back(std::move(name));
        }
    }
    return out;
}

sim::RunOptions
options(std::uint64_t insts, std::uint64_t seed)
{
    sim::RunOptions o;
    o.instructions = insts;
    o.warmup = 0; // caches start empty; every retired instruction counts
    o.mix_seed = seed;
    return o;
}

Plan
makePlan(const std::string &name, std::uint64_t seed, const Size &size)
{
    Plan plan;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    const std::uint64_t seed_base = seed * 1000;

    if (name == "mix4_friendly" || name == "mix4_unfriendly") {
        const int cls = name == "mix4_friendly" ? 1 : 2;
        const sim::SystemConfig config = sim::applyPolicy(
            sim::SystemConfig::baseline(4), sim::PolicySetup::Padc);
        const std::vector<std::string> slots =
            balancedDraw(workload::profileNamesInClass(cls),
                         std::size_t{4} * size.mix4_mixes, rng);
        Batch batch;
        batch.base_seed = seed_base;
        for (std::uint32_t m = 0; m < size.mix4_mixes; ++m) {
            Point p;
            p.id = "m" + std::to_string(m);
            p.sweep.config = config;
            p.sweep.mix.assign(slots.begin() + 4 * m,
                               slots.begin() + 4 * (m + 1));
            p.sweep.options = options(size.mix4_insts, seed_base + m);
            batch.mixes.push_back(p.sweep.mix);
            batch.points.push_back(std::move(p));
        }
        plan.batches.push_back(std::move(batch));
        plan.alone_base = config;
        plan.alone_options = options(size.mix4_insts, 0);
        return plan;
    }

    if (name != "sweep_4t")
        throw std::invalid_argument("unknown workload '" + name + "'");
    plan.threads = 4;

    // 1-core runSweep: profiles of all three classes under five policies.
    const sim::PolicySetup policies[] = {
        sim::PolicySetup::NoPref, sim::PolicySetup::DemandFirst,
        sim::PolicySetup::DemandPrefEqual, sim::PolicySetup::ApsOnly,
        sim::PolicySetup::Padc};
    std::vector<std::string> profiles;
    std::vector<std::string> all_profiles;
    for (int cls : {0, 1, 2}) {
        std::vector<std::string> names = workload::profileNamesInClass(cls);
        all_profiles.insert(all_profiles.end(), names.begin(), names.end());
        const std::size_t take = size.sweep_profiles_per_class == 0
                                     ? names.size()
                                     : size.sweep_profiles_per_class;
        names = balancedDraw(names, take, rng);
        profiles.insert(profiles.end(), names.begin(), names.end());
    }
    Batch one_core;
    one_core.kind = BatchKind::RunSweep;
    const sim::SystemConfig base1 = sim::SystemConfig::baseline(1);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (const sim::PolicySetup policy : policies) {
            Point p;
            p.id = "a" + std::to_string(one_core.points.size());
            p.sweep.config = sim::applyPolicy(base1, policy);
            p.sweep.mix = {profiles[i]};
            p.sweep.options = options(size.sweep_1c_insts, seed_base + i);
            one_core.points.push_back(std::move(p));
        }
    }
    // Seeded order: where the long points fall decides the batch tail.
    for (std::size_t i = one_core.points.size(); i > 1; --i)
        std::swap(one_core.points[i - 1],
                  one_core.points[rng.nextBelow(i)]);
    plan.batches.push_back(std::move(one_core));

    // 2-core evaluateSweep with its alone-IPC prewarm barrier.
    Batch two_core;
    two_core.kind = BatchKind::EvalSweep;
    // Every profile pairs with the one half the pool away, so each seed
    // runs the same pairs (on its own traces, in its own order) and the
    // 2-core work hardly depends on the seed.
    const std::size_t n = all_profiles.size();
    for (std::size_t m = 0; m < size.sweep_2c_mixes; ++m) {
        const std::size_t first = (m * n) / size.sweep_2c_mixes;
        two_core.mixes.push_back(
            {all_profiles[first], all_profiles[(first + n / 2) % n]});
    }
    two_core.base_seed = seed_base + 500;
    const sim::SystemConfig base2 = sim::SystemConfig::baseline(2);
    for (std::size_t m = 0; m < two_core.mixes.size(); ++m) {
        for (const sim::PolicySetup policy :
             {sim::PolicySetup::DemandFirst, sim::PolicySetup::Padc}) {
            Point p;
            p.id = "b" + std::to_string(two_core.points.size());
            p.sweep.config = sim::applyPolicy(base2, policy);
            p.sweep.mix = two_core.mixes[m];
            p.sweep.options =
                options(size.sweep_2c_insts, two_core.base_seed + m);
            two_core.points.push_back(std::move(p));
        }
    }
    plan.batches.push_back(std::move(two_core));
    plan.alone_base = base2;
    plan.alone_options = options(size.sweep_2c_insts, 0);
    return plan;
}

// --- references -------------------------------------------------------

using References = std::map<std::string, std::string>; ///< id -> digest

std::string
referencePath(const std::string &dir, const std::string &workload,
              const std::string &size, std::uint64_t seed)
{
    return dir + "/" + workload + "-" + size + "-s" + std::to_string(seed) +
           ".txt";
}

/** Empty when no reference is committed for this seed. */
References
loadReferences(const std::string &path)
{
    References refs;
    std::ifstream in(path);
    std::string id;
    std::string digest;
    while (in >> id >> digest)
        refs[id] = digest;
    return refs;
}

// --- execution --------------------------------------------------------

/** Outcome of one point in one pass. */
struct PointRun
{
    bool ok = false;
    std::string detail;
    std::string digest;
    double host_s = 0.0;
    double build_s = 0.0; ///< Serial batches only
    double run_s = 0.0;   ///< Serial batches only
    std::uint64_t sim_cycles = 0;
    std::uint64_t sim_insts = 0;
    bool multicore = false;
    double ws = 0.0;
};

struct PassRun
{
    std::vector<std::vector<PointRun>> batches; ///< like Plan::batches
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double prewarm_s = 0.0;
    double barrier_idle_s = 0.0;
    double build_s = 0.0;
    double run_s = 0.0;
    std::uint64_t alone_runs = 0;
    std::uint64_t event_jumps = 0;
    std::uint64_t skipped_cycles = 0;
};

void
fillSim(PointRun &r, const sim::RunMetrics &m)
{
    for (const sim::CoreMetrics &c : m.cores) {
        r.sim_cycles = std::max<std::uint64_t>(r.sim_cycles, c.cycles);
        r.sim_insts += c.instructions;
    }
}

std::vector<double>
aloneIpcs(sim::AloneIpcCache &alone, const sim::SweepPoint &p)
{
    std::vector<double> ipcs;
    for (std::uint32_t c = 0; c < p.mix.size(); ++c)
        ipcs.push_back(alone.ipcAlone(p.mix[c], c, p.options.mix_seed));
    return ipcs;
}

/** Build, run and check one mix4 point the way runMix does, in place. */
PointRun
runSerialPoint(const sim::SweepPoint &p, sim::AloneIpcCache &alone)
{
    PointRun r;
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < p.mix.size(); ++c) {
        traces.push_back(
            workload::makeTraceSource(p.mix, c, p.options.mix_seed));
        sources.push_back(traces.back().get());
    }
    sim::System system(p.config, sources);
    r.build_s = secondsSince(t0);
    const auto t1 = Clock::now();
    const sim::RunStatus status = system.run(
        p.options.instructions, p.options.max_cycles, p.options.warmup);
    r.run_s = secondsSince(t1);
    const sim::RunMetrics metrics = sim::collectMetrics(system);
    const sim::MultiCoreMetrics summary =
        sim::multiCoreMetrics(metrics, aloneIpcs(alone, p));
    Digest d;
    digestStats(d, system.exportStats());
    digestMetrics(d, metrics);
    digestSummary(d, summary);
    r.host_s = secondsSince(t0);
    r.ok = status.converged();
    r.detail = status.detail();
    r.digest = d.hex();
    fillSim(r, metrics);
    r.multicore = true;
    r.ws = summary.ws;
    return r;
}

template <typename T>
PointRun
fromResult(const sim::Result<T> &result, double host_s)
{
    PointRun r;
    r.ok = result.ok();
    r.detail = result.outcome.detail;
    r.host_s = host_s;
    return r;
}

struct ProfilerDelta
{
    telemetry::WallProfiler::Snapshot before =
        telemetry::WallProfiler::instance().snapshot();

    void addTo(PassRun &pass, bool phases) const
    {
        const auto after = telemetry::WallProfiler::instance().snapshot();
        pass.event_jumps += after.event_jumps - before.event_jumps;
        pass.skipped_cycles += after.skipped_cycles - before.skipped_cycles;
        if (!phases)
            return;
        const auto delta = [&](telemetry::ProfilePhase phase) {
            return after.seconds(phase) - before.seconds(phase);
        };
        pass.build_s += delta(telemetry::ProfilePhase::Build);
        pass.run_s += delta(telemetry::ProfilePhase::Simulate);
    }
};

/**
 * One untraced pass over the plan. Pooled batches call runSweep /
 * evaluateSweep once per point from the pool, so the benchmark owns
 * each point's boundary and can time it. @p alone supplies the alone
 * IPCs: a warmed cache for serial batches (their alone-runs are part of
 * set-up), an empty one for EvalSweep batches (their prewarm is part of
 * the pass).
 */
PassRun
runPass(const Plan &plan, sim::ParallelExperimentRunner &pool,
        sim::AloneIpcCache &alone)
{
    PassRun pass;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    for (const Batch &batch : plan.batches) {
        std::vector<PointRun> runs(batch.points.size());
        if (batch.kind == BatchKind::Serial) {
            const ProfilerDelta profile;
            for (std::size_t i = 0; i < batch.points.size(); ++i) {
                runs[i] = runSerialPoint(batch.points[i].sweep, alone);
                pass.build_s += runs[i].build_s;
                pass.run_s += runs[i].run_s;
            }
            profile.addTo(pass, false);
            pass.batches.push_back(std::move(runs));
            continue;
        }
        if (batch.kind == BatchKind::EvalSweep) {
            const auto t = Clock::now();
            alone.prewarm(batch.mixes, batch.base_seed, pool);
            pass.prewarm_s += secondsSince(t);
            for (const auto &mix : batch.mixes)
                pass.alone_runs += mix.size();
        }
        const ProfilerDelta profile;
        const auto batch_start = Clock::now();
        pool.forEach(batch.points.size(), [&](std::size_t i) {
            sim::ParallelExperimentRunner serial(1);
            const std::vector<sim::SweepPoint> one = {batch.points[i].sweep};
            const auto t = Clock::now();
            if (batch.kind == BatchKind::RunSweep) {
                const auto result = sim::runSweep(one, serial).front();
                runs[i] = fromResult(result, secondsSince(t));
                Digest d;
                digestMetrics(d, result.value);
                runs[i].digest = d.hex();
                fillSim(runs[i], result.value);
            } else {
                const auto result =
                    sim::evaluateSweep(one, alone, serial).front();
                runs[i] = fromResult(result, secondsSince(t));
                Digest d;
                digestMetrics(d, result.value.metrics);
                digestSummary(d, result.value.summary);
                runs[i].digest = d.hex();
                fillSim(runs[i], result.value.metrics);
                runs[i].multicore = true;
                runs[i].ws = result.value.summary.ws;
            }
        });
        const double batch_wall = secondsSince(batch_start);
        profile.addTo(pass, true);
        double busy = 0.0;
        for (const PointRun &r : runs)
            busy += r.host_s;
        pass.barrier_idle_s += pool.threadCount() * batch_wall - busy;
        pass.batches.push_back(std::move(runs));
    }
    pass.wall_s = secondsSince(start);
    pass.cpu_s = cpuSeconds() - cpu0;
    return pass;
}

// --- traced pass ------------------------------------------------------

/** Host-time span, kept in memory and written as Chrome-trace JSON. */
struct Span
{
    std::string name;
    std::string point;
    unsigned tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
};

class SpanLog
{
  public:
    /** Times @p fn as span @p name of point @p point. */
    template <typename Fn>
    double time(const char *name, const std::string &point, Fn &&fn)
    {
        const auto start = Clock::now();
        fn();
        const auto end = Clock::now();
        const auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(
            {name, point, threadId(), us(start), us(end) - us(start)});
        return std::chrono::duration<double>(end - start).count();
    }

    std::string json() const
    {
        std::ostringstream out;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"cat\":\"perfbench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                          "\"dur\":%.3f,\"args\":{\"point\":\"%s\"}}",
                          i == 0 ? "" : ",", s.name.c_str(), s.tid, s.ts_us,
                          s.dur_us, s.point.c_str());
            out << buf;
        }
        out << "]}\n";
        return out.str();
    }

  private:
    /** Small per-thread number for the trace's tid field. */
    static unsigned threadId()
    {
        static std::atomic<unsigned> next{1};
        thread_local const unsigned id = next++;
        return id;
    }

    Clock::time_point origin_ = Clock::now();
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Records every op the core pulls, so the hierarchy can be replayed. */
class RecordingTrace : public core::TraceSource
{
  public:
    RecordingTrace(std::unique_ptr<core::TraceSource> inner,
                   std::vector<CapturedOp> *ops)
        : inner_(std::move(inner)), ops_(ops)
    {
    }

    core::TraceOp next() override
    {
        const core::TraceOp op = inner_->next();
        ops_->push_back({op.addr, op.pc, op.is_load});
        return op;
    }

    void reset() override
    {
        inner_->reset();
        ops_->clear();
    }

  private:
    std::unique_ptr<core::TraceSource> inner_;
    std::vector<CapturedOp> *ops_;
};

/**
 * Named in-system counts, replay results and host seconds of the traced
 * pass, summed over its points, plus the simulated read latencies.
 */
struct Layers
{
    std::map<std::string, double> sums;
    std::vector<std::uint32_t> demand_lat, prefetch_lat;

    double &operator[](const std::string &name) { return sums[name]; }

    double get(const std::string &name) const
    {
        const auto it = sums.find(name);
        return it == sums.end() ? 0.0 : it->second;
    }

    void add(const Layers &o)
    {
        for (const auto &[name, value] : o.sums)
            sums[name] += value;
        demand_lat.insert(demand_lat.end(), o.demand_lat.begin(),
                          o.demand_lat.end());
        prefetch_lat.insert(prefetch_lat.end(), o.prefetch_lat.begin(),
                            o.prefetch_lat.end());
    }
};

void
countSystem(const sim::System &system, Layers &l)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    for (std::uint32_t i = 0; i < system.numControllers(); ++i) {
        const memctrl::ControllerStats &cs = system.controller(i).stats();
        l["memctrl.reads"] += d(cs.demand_reads + cs.prefetch_reads);
        l["memctrl.writes"] += d(cs.writes);
        l["memctrl.row_hits"] += d(cs.read_row_hits);
        l["memctrl.dropped"] += d(cs.prefetches_dropped);
        l["memctrl.rejected_full"] +=
            d(cs.prefetches_rejected_full + cs.demands_rejected_full);
        l["memctrl.promotions"] += d(cs.promotions);
        l["memctrl.occupancy_sum"] += d(cs.read_queue_occupancy_sum);
        l["memctrl.dram_cycles"] += d(cs.dram_cycles);
    }
    const dram::ChannelStats ds = system.dramSystem().totalStats();
    l["dram.activates"] += d(ds.activates);
    l["dram.precharges"] += d(ds.precharges);
    l["dram.reads"] += d(ds.reads);
    l["dram.writes"] += d(ds.writes);
    const dram::TimingParams &timing = system.dramSystem().channel(0).timing();
    l["dram.busy_cycles"] +=
        d(ds.reads + ds.writes) * d(timing.toCpu(timing.tBURST));
    l["dram.channel_cycles"] +=
        d(system.cycles()) * system.dramSystem().numChannels();
    for (CoreId c = 0; c < system.config().num_cores; ++c) {
        const sim::CoreMemStats &ms = system.memStats(c);
        l["cache.l2_accesses"] += d(ms.l2_demand_accesses);
        l["cache.l2_misses"] += d(ms.l2_demand_misses);
        l["cache.l2_fills"] += d(system.l2(c).stats().fills);
        l["cache.l2_dirty_evictions"] +=
            d(system.l2(c).stats().dirty_evictions);
        l["prefetch.candidates"] += d(ms.prefetch_candidates);
        l["prefetch.issued"] += d(ms.prefetches_issued);
        l["prefetch.no_room"] += d(ms.prefetches_no_room);
        l["prefetch.sent"] += d(system.tracker().totalSent(c));
        l["prefetch.used"] += d(system.tracker().totalUsed(c));
        const core::CoreStats &cs = system.coreModel(c).stats();
        l["core.insts"] += d(cs.instructions);
        l["core.load_stall_cycles"] += d(cs.load_stall_cycles);
        l["core.issue_retries"] += d(cs.issue_retries);
        l["core.cycles"] += d(system.cycles());
    }
}

void
countTrace(const std::vector<telemetry::TraceEvent> &events, Layers &l)
{
    for (const telemetry::TraceEvent &ev : events) {
        switch (ev.kind) {
          case telemetry::EventKind::MshrAlloc:
            l["cache.mshr_allocs"] += 1;
            break;
          case telemetry::EventKind::MshrCoalesce:
            l["cache.mshr_coalesces"] += 1;
            break;
          case telemetry::EventKind::Complete: {
            const auto lat = static_cast<std::uint32_t>(ev.cycle - ev.aux);
            if (ev.requestClass() == RequestClass::Prefetch)
                l.prefetch_lat.push_back(lat);
            else
                l.demand_lat.push_back(lat);
            break;
          }
          default:
            break;
        }
    }
}

void
countReplays(const perfbench::MemctrlReplay &mc,
             const perfbench::DramReplay &dr, const perfbench::CacheReplay &ca,
             const perfbench::PrefetchReplay &pf, Layers &l)
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    l["replay.memctrl.ticks"] += d(mc.ticks);
    l["replay.memctrl.reads"] += d(mc.reads);
    l["replay.memctrl.row_hits"] += d(mc.row_hits);
    l["replay.memctrl.host_s"] += mc.host_s;
    l["replay.dram.commands"] += d(dr.commands);
    l["replay.dram.illegal"] += d(dr.illegal);
    l["replay.dram.activates"] += d(dr.stats.activates);
    l["replay.dram.reads"] += d(dr.stats.reads);
    l["replay.dram.writes"] += d(dr.stats.writes);
    l["replay.dram.host_s"] += dr.host_s;
    l["replay.cache.accesses"] += d(ca.accesses);
    l["replay.cache.l2_accesses"] += d(ca.l2_accesses);
    l["replay.cache.l2_misses"] += d(ca.l2_misses);
    l["replay.cache.l2_fills"] += d(ca.l2_fills);
    l["replay.cache.host_s"] += ca.host_s;
    l["replay.prefetch.observes"] += d(pf.observes);
    l["replay.prefetch.candidates"] += d(pf.candidates);
    l["replay.prefetch.host_s"] += pf.host_s;
}

constexpr std::size_t kReplayRepeats = 4;

/**
 * Run one point with the telemetry observer and the recording trace
 * sources attached, check its digest against the untraced run, then
 * replay every inner layer on the captured input.
 */
Layers
tracePoint(const Point &point, BatchKind kind, sim::AloneIpcCache &alone,
           const std::string &untraced_digest, SpanLog &spans,
           CpuRotation *rotation, bool *match)
{
    Layers l;
    telemetry::TelemetryConfig tc;
    tc.trace = true;
    tc.timeseries = true;
    tc.trace_limit = std::uint64_t{1} << 26;
    telemetry::Collector collector(tc);
    sim::SystemConfig config = point.sweep.config;
    config.collector = &collector;
    const sim::RunOptions &opt = point.sweep.options;
    const workload::Mix &mix = point.sweep.mix;

    Capture capture;
    capture.ops.resize(mix.size());
    std::vector<std::unique_ptr<core::TraceSource>> traces;
    std::unique_ptr<sim::System> system;
    double capture_s = 0.0;
    spans.time("point", point.id, [&] {
        capture_s += spans.time("build", point.id, [&] {
            std::vector<core::TraceSource *> sources;
            for (std::uint32_t c = 0; c < mix.size(); ++c) {
                traces.push_back(std::make_unique<RecordingTrace>(
                    workload::makeTraceSource(mix, c, opt.mix_seed),
                    &capture.ops[c]));
                sources.push_back(traces.back().get());
            }
            system = std::make_unique<sim::System>(config, sources);
        });
        capture_s += spans.time("run", point.id, [&] {
            system->run(opt.instructions, opt.max_cycles, opt.warmup);
        });
        capture_s += spans.time("collect", point.id, [&] {
            const sim::RunMetrics metrics = sim::collectMetrics(*system);
            Digest d;
            if (kind == BatchKind::Serial)
                digestStats(d, system->exportStats());
            digestMetrics(d, metrics);
            if (kind != BatchKind::RunSweep) {
                digestSummary(d, sim::multiCoreMetrics(
                                     metrics, aloneIpcs(alone, point.sweep)));
            }
            *match = d.hex() == untraced_digest;
        });

        countSystem(*system, l);
        capture.config = point.sweep.config;
        capture.events = collector.trace()->events();
        capture.rows = collector.sampler()->rows();
        capture.cycles = system->cycles();
        for (CoreId c = 0; c < mix.size(); ++c)
            capture.retries.push_back(
                system->coreModel(c).stats().issue_retries);
        l["trace.lost"] += static_cast<double>(collector.trace()->dropped());
        l["trace.capture_s"] += capture_s;
        countTrace(capture.events, l);
        system.reset();

        // Replays are deterministic: each runs kReplayRepeats times (on
        // each CPU in turn when @p rotation is given) and keeps its
        // fastest time, so load elsewhere on the machine does not land in
        // one layer's share.
        perfbench::MemctrlReplay mc;
        perfbench::DramReplay dr;
        perfbench::CacheReplay ca;
        perfbench::PrefetchReplay pf;
        for (std::size_t r = 0; r < kReplayRepeats; ++r) {
            if (rotation != nullptr)
                rotation->pin(r);
            perfbench::MemctrlReplay mc_r;
            perfbench::DramReplay dr_r;
            perfbench::CacheReplay ca_r;
            perfbench::PrefetchReplay pf_r;
            spans.time("replay.memctrl", point.id,
                       [&] { mc_r = perfbench::replayMemctrl(capture); });
            spans.time("replay.dram", point.id,
                       [&] { dr_r = perfbench::replayDram(capture); });
            spans.time("replay.cache+prefetch", point.id, [&] {
                perfbench::replayHierarchy(capture, &ca_r, &pf_r);
            });
            if (r == 0 || mc_r.host_s < mc.host_s)
                mc = mc_r;
            if (r == 0 || dr_r.host_s < dr.host_s)
                dr = dr_r;
            if (r == 0 || ca_r.host_s < ca.host_s)
                ca = ca_r;
            if (r == 0 || pf_r.host_s < pf.host_s)
                pf = pf_r;
        }
        if (rotation != nullptr)
            rotation->restore();
        countReplays(mc, dr, ca, pf, l);
        spans.time("replay.workload", point.id, [&] {
            // The generator alone, re-driven for the ops the cores pulled.
            std::uint64_t sink = 0;
            for (std::uint32_t c = 0; c < mix.size(); ++c) {
                auto source = workload::makeTraceSource(mix, c, opt.mix_seed);
                const std::size_t n = capture.ops[c].size();
                const auto start = Clock::now();
                for (std::size_t i = 0; i < n; ++i)
                    sink += source->next().addr;
                l["workload.host_s"] += secondsSince(start);
                l["workload.ops"] += static_cast<double>(n);
            }
            if (sink == 1)
                std::fputs("", stdout); // keeps the loop observable
        });
    });
    return l;
}

// --- reporting --------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** |replay - system| within @p tol of the in-system count. */
bool
agrees(double replay, double system, double tol)
{
    return std::abs(replay - system) <= tol * std::max(system, 1.0);
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Replay-vs-system tolerances; see README.md for how they were set. */
constexpr double kMemctrlTolerance = 0.02;
constexpr double kCacheTolerance = 0.10;
constexpr double kPrefetchTolerance = 0.10;

/** Prints one replay-vs-system row; a negative @p tol is not checked. */
bool
fidelityRow(const char *layer, const char *what, double replay,
            double system, double tol)
{
    const bool ok = tol < 0.0 || agrees(replay, system, tol);
    std::printf("  %-9s %-22s replay %12.0f  system %12.0f  ", layer, what,
                replay, system);
    if (tol < 0.0)
        std::printf("(not checked)\n");
    else
        std::printf("tol %4.0f%%  %s\n", tol * 100.0, ok ? "ok" : "MISMATCH");
    return ok;
}

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The per-layer metrics of a traced run. A replayed layer whose work
 * counts disagree with the in-system counts reports no host time.
 */
std::vector<Metric>
layerMetrics(const Layers &t, const PassRun &u, std::uint64_t points,
             std::uint64_t alone_runs, double untraced_point_s)
{
    const auto g = [&](const char *name) { return t.get(name); };
    const auto row = [&](const char *layer, const char *what,
                         const char *replay, const char *system, double tol) {
        return fidelityRow(layer, what, g(replay), g(system), tol);
    };
    std::printf("replay fidelity (whole traced pass):\n");
    const bool complete = g("trace.lost") == 0.0;
    if (!complete)
        std::printf("  trace lost %.0f events: no replay is trusted\n",
                    g("trace.lost"));
    bool dr_ok = row("dram", "activates", "replay.dram.activates",
                     "dram.activates", 0.0);
    dr_ok &= row("dram", "column reads", "replay.dram.reads", "dram.reads",
                 0.0);
    dr_ok &= row("dram", "column writes", "replay.dram.writes", "dram.writes",
                 0.0);
    dr_ok &= fidelityRow("dram", "illegal commands", g("replay.dram.illegal"),
                         0.0, 0.0);
    dr_ok &= complete;
    // The controller replay drives its own channel; its self time
    // excludes the separately replayed DRAM commands, so it needs both.
    bool mc_ok = row("memctrl", "serviced reads", "replay.memctrl.reads",
                     "memctrl.reads", kMemctrlTolerance);
    mc_ok &= row("memctrl", "row hits", "replay.memctrl.row_hits",
                 "memctrl.row_hits", kMemctrlTolerance);
    mc_ok &= complete && dr_ok;
    // With instant fills a late prefetch becomes an L2 hit instead of a
    // promoted miss, so misses are shown but only lookups and lines
    // filled are checked.
    row("cache", "l2 misses", "replay.cache.l2_misses", "cache.l2_misses",
        -1.0);
    bool ca_ok = row("cache", "l2 accesses", "replay.cache.l2_accesses",
                     "cache.l2_accesses", kCacheTolerance);
    ca_ok &= row("cache", "l2 fills", "replay.cache.l2_fills",
                 "cache.l2_fills", kCacheTolerance);
    const bool pf_ok =
        row("prefetch", "candidates", "replay.prefetch.candidates",
            "prefetch.candidates", kPrefetchTolerance);

    const double mc_self = g("replay.memctrl.host_s") - g("replay.dram.host_s");
    std::vector<std::uint32_t> dl = t.demand_lat, pl = t.prefetch_lat;
    std::sort(dl.begin(), dl.end());
    std::sort(pl.begin(), pl.end());

    std::vector<Metric> m = {
        {"memctrl.sched_rounds", g("replay.memctrl.ticks"), "count"},
        {"memctrl.avg_read_queue",
         frac(g("memctrl.occupancy_sum"), g("memctrl.dram_cycles")),
         "requests"},
        {"memctrl.reads", g("memctrl.reads"), "count"},
        {"memctrl.writes", g("memctrl.writes"), "count"},
        {"memctrl.row_hit_frac", frac(g("memctrl.row_hits"), g("memctrl.reads")),
         "fraction"},
        {"memctrl.dropped", g("memctrl.dropped"), "count"},
        {"memctrl.rejected_full", g("memctrl.rejected_full"), "count"},
        {"memctrl.promotions", g("memctrl.promotions"), "count"},
    };
    if (mc_ok) {
        m.push_back({"memctrl.host_s", mc_self, "s"});
        m.push_back({"memctrl.ns_per_round",
                     frac(mc_self, g("replay.memctrl.ticks")) * 1e9, "ns"});
    }
    m.push_back({"memctrl.replay_match", mc_ok ? 1.0 : 0.0, "bool"});
    m.push_back({"memctrl.demand_lat_p50_cyc", percentile(dl, 50), "cycles"});
    m.push_back({"memctrl.demand_lat_p99_cyc", percentile(dl, 99), "cycles"});
    m.push_back(
        {"memctrl.prefetch_lat_p50_cyc", percentile(pl, 50), "cycles"});
    m.push_back(
        {"memctrl.prefetch_lat_p99_cyc", percentile(pl, 99), "cycles"});

    for (const char *name :
         {"dram.activates", "dram.precharges", "dram.reads", "dram.writes"})
        m.push_back({name, g(name), "count"});
    m.push_back({"dram.bus_util",
                 frac(g("dram.busy_cycles"), g("dram.channel_cycles")),
                 "fraction"});
    if (dr_ok) {
        m.push_back({"dram.host_s", g("replay.dram.host_s"), "s"});
        m.push_back({"dram.ns_per_cmd",
                     frac(g("replay.dram.host_s"), g("replay.dram.commands")) *
                         1e9,
                     "ns"});
    }
    m.push_back({"dram.replay_match", dr_ok ? 1.0 : 0.0, "bool"});

    m.push_back({"cache.l2_accesses", g("cache.l2_accesses"), "count"});
    m.push_back({"cache.l2_miss_frac",
                 frac(g("cache.l2_misses"), g("cache.l2_accesses")),
                 "fraction"});
    m.push_back(
        {"cache.l2_dirty_evictions", g("cache.l2_dirty_evictions"), "count"});
    m.push_back({"cache.mshr_allocs", g("cache.mshr_allocs"), "count"});
    m.push_back({"cache.mshr_coalesce_frac",
                 frac(g("cache.mshr_coalesces"),
                      g("cache.mshr_allocs") + g("cache.mshr_coalesces")),
                 "fraction"});
    if (ca_ok) {
        m.push_back({"cache.host_s", g("replay.cache.host_s"), "s"});
        m.push_back({"cache.ns_per_access",
                     frac(g("replay.cache.host_s"),
                          g("replay.cache.accesses")) *
                         1e9,
                     "ns"});
    }
    m.push_back({"cache.replay_match", ca_ok ? 1.0 : 0.0, "bool"});

    for (const char *name :
         {"prefetch.candidates", "prefetch.issued", "prefetch.no_room"})
        m.push_back({name, g(name), "count"});
    m.push_back({"prefetch.accuracy",
                 frac(g("prefetch.used"), g("prefetch.sent")), "fraction"});
    if (pf_ok) {
        m.push_back({"prefetch.host_s", g("replay.prefetch.host_s"), "s"});
        m.push_back({"prefetch.ns_per_observe",
                     frac(g("replay.prefetch.host_s"),
                          g("replay.prefetch.observes")) *
                         1e9,
                     "ns"});
    }
    m.push_back({"prefetch.replay_match", pf_ok ? 1.0 : 0.0, "bool"});

    m.push_back({"core.insts", g("core.insts"), "count"});
    m.push_back({"core.load_stall_frac",
                 frac(g("core.load_stall_cycles"), g("core.cycles")),
                 "fraction"});
    m.push_back({"core.issue_retries", g("core.issue_retries"), "count"});
    double sim_cycles = 0.0;
    for (const auto &batch : u.batches) {
        for (const PointRun &r : batch)
            sim_cycles += static_cast<double>(r.sim_cycles);
    }
    m.push_back(
        {"sim.event_jumps", static_cast<double>(u.event_jumps), "count"});
    m.push_back({"sim.skipped_cycle_frac",
                 frac(static_cast<double>(u.skipped_cycles), sim_cycles),
                 "fraction"});
    m.push_back({"sim.run_s", u.run_s, "s"});
    if (mc_ok && ca_ok && pf_ok) {
        // Core model plus System glue: what no replay accounts for.
        m.push_back({"sim.residual_s",
                     u.run_s - mc_self - g("replay.dram.host_s") -
                         g("replay.cache.host_s") -
                         g("replay.prefetch.host_s") - g("workload.host_s"),
                     "s"});
    }
    m.push_back({"sim.build_s", u.build_s, "s"});
    m.push_back({"sim.points", static_cast<double>(points), "count"});
    m.push_back({"sim.alone_runs", static_cast<double>(alone_runs), "count"});
    m.push_back({"sim.prewarm_s", u.prewarm_s, "s"});
    m.push_back({"sim.barrier_idle_s", u.barrier_idle_s, "s"});
    m.push_back({"workload.ops", g("workload.ops"), "count"});
    m.push_back({"workload.host_s", g("workload.host_s"), "s"});
    m.push_back({"trace.overhead_frac",
                 frac(g("trace.capture_s"), untraced_point_s) - 1.0,
                 "fraction"});
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string size = "full";
    std::string refs = "perfbench/refs";
    bool write_refs = false;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--seconds")
            a.seconds = std::stod(value());
        else if (arg == "--trace")
            a.trace = value() != "0";
        else if (arg == "--size")
            a.size = value();
        else if (arg == "--refs")
            a.refs = value();
        else if (arg == "--write-refs")
            a.write_refs = true;
        else if (arg == "--spans")
            a.spans = value();
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    if (a.size != "full" && a.size != "tiny")
        throw std::invalid_argument("--size must be full or tiny");
    return a;
}

/** Set-up runs at least .first and at most .second times, and repeats
    past .first only while under kSetupSeconds in total. */
constexpr std::pair<std::size_t, std::size_t> kSetupRepeats{3, 201};
constexpr double kSetupSeconds = 0.5;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinPoints = 100; ///< a p90 needs ten points above it

int
run(const Args &args)
{
    const Size &size = args.size == "tiny" ? kTiny : kFull;
    const std::string ref_path =
        referencePath(args.refs, args.workload, args.size, args.seed);

    // Set-up, repeated on every CPU in turn: point generation, pool
    // start-up, reference-digest load and, for serial mixes, the alone-run
    // IPCs their weighted speedup is measured against.
    Plan plan;
    References refs;
    std::unique_ptr<sim::ParallelExperimentRunner> pool;
    std::unique_ptr<sim::AloneIpcCache> warm_alone;
    std::uint64_t warm_alone_runs = 0;
    std::vector<double> setup_times;
    CpuRotation rotation;
    const auto setup_start = Clock::now();
    while (setup_times.size() < kSetupRepeats.first ||
           (setup_times.size() < kSetupRepeats.second &&
            secondsSince(setup_start) < kSetupSeconds)) {
        pool.reset();
        rotation.pin(setup_times.size());
        const auto t = Clock::now();
        plan = makePlan(args.workload, args.seed, size);
        pool = std::make_unique<sim::ParallelExperimentRunner>(plan.threads);
        refs = loadReferences(ref_path);
        warm_alone = std::make_unique<sim::AloneIpcCache>(plan.alone_base,
                                                          plan.alone_options);
        warm_alone_runs = 0;
        sim::ParallelExperimentRunner serial(1);
        for (const Batch &batch : plan.batches) {
            if (batch.kind != BatchKind::Serial)
                continue;
            warm_alone->prewarm(batch.mixes, batch.base_seed, serial);
            for (const auto &mix : batch.mixes)
                warm_alone_runs += mix.size();
        }
        setup_times.push_back(secondsSince(t));
    }
    // Pool threads inherit the creator's CPU set: start the kept pool
    // unpinned.
    rotation.restore();
    pool.reset();
    pool = std::make_unique<sim::ParallelExperimentRunner>(plan.threads);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::vector<std::string>> first_digests;
    const auto check = [&](const Batch &batch, std::size_t b,
                           const std::vector<PointRun> &runs) {
        if (first_digests.size() <= b) {
            first_digests.emplace_back();
            for (const PointRun &r : runs)
                first_digests[b].push_back(r.digest);
        }
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const std::string &id = batch.points[i].id;
            std::string why;
            if (!runs[i].ok)
                why = "status: " + runs[i].detail;
            else if (runs[i].digest != first_digests[b][i])
                why = "digest differs from the first pass";
            else if (!refs.empty() && refs[id] != runs[i].digest)
                why = "digest " + runs[i].digest + " != reference " +
                      refs[id];
            ++attempted;
            if (!why.empty()) {
                ++failed;
                failures.push_back(id + ": " + why);
            }
        }
    };

    // Measured passes.
    std::vector<PassRun> passes;
    std::size_t points = 0;
    const auto measure_start = Clock::now();
    std::unique_ptr<sim::AloneIpcCache> last_alone;
    for (;;) {
        const bool serial = plan.batches.front().kind == BatchKind::Serial;
        auto fresh = std::make_unique<sim::AloneIpcCache>(plan.alone_base,
                                                          plan.alone_options);
        if (serial)
            rotation.pin(passes.size());
        passes.push_back(runPass(plan, *pool, serial ? *warm_alone : *fresh));
        rotation.restore();
        last_alone = std::move(fresh);
        for (std::size_t b = 0; b < plan.batches.size(); ++b) {
            check(plan.batches[b], b, passes.back().batches[b]);
            points += plan.batches[b].points.size();
        }
        if (args.write_refs)
            break;
        if (passes.size() >= kMinPasses &&
            (args.trace || secondsSince(measure_start) >= args.seconds))
            break;
    }

    if (args.write_refs) {
        std::ofstream out(ref_path);
        for (std::size_t b = 0; b < plan.batches.size(); ++b) {
            for (std::size_t i = 0; i < plan.batches[b].points.size(); ++i) {
                out << plan.batches[b].points[i].id << " "
                    << passes.front().batches[b][i].digest << "\n";
            }
        }
        std::printf("wrote %s\n", ref_path.c_str());
        return out ? 0 : 1;
    }

    std::printf("perfbench %s seed %llu size %s: %zu pass(es), %zu points, "
                "reference %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.size.c_str(),
                passes.size(), points,
                refs.empty() ? "none for this seed" : ref_path.c_str());

    std::vector<Metric> metrics;
    const PassRun &first = passes.front();
    // Layer times are set against the fastest untraced pass (the replays
    // keep their fastest run too); the single traced run is set against
    // the median pass for the tracing overhead.
    std::vector<const PassRun *> by_wall;
    for (const PassRun &pass : passes)
        by_wall.push_back(&pass);
    std::sort(by_wall.begin(), by_wall.end(),
              [](const PassRun *a, const PassRun *b) {
                  return a->wall_s < b->wall_s;
              });
    const PassRun &fastest = *by_wall.front();
    const PassRun &typical = *by_wall[by_wall.size() / 2];
    if (!args.trace) {
        // Every pass repeats the same work, so a pass slowed by other
        // load on the machine only adds time: timings are the fastest
        // pass, and each point's latency is its fastest run.
        std::vector<double> wall, cpu, speedup, point_ms;
        for (const PassRun &pass : passes) {
            double busy = 0.0;
            for (const auto &batch : pass.batches) {
                for (const PointRun &r : batch)
                    busy += r.host_s;
            }
            wall.push_back(pass.wall_s);
            cpu.push_back(pass.cpu_s);
            speedup.push_back(busy / pass.wall_s);
        }
        std::uint64_t sim_cycles = 0;
        std::uint64_t sim_insts = 0;
        double ws_sum = 0.0;
        std::size_t ws_n = 0;
        for (std::size_t b = 0; b < first.batches.size(); ++b) {
            for (std::size_t i = 0; i < first.batches[b].size(); ++i) {
                const PointRun &r = first.batches[b][i];
                sim_cycles += r.sim_cycles;
                sim_insts += r.sim_insts;
                if (r.multicore) {
                    ws_sum += r.ws;
                    ++ws_n;
                }
                double best = r.host_s;
                for (const PassRun &pass : passes)
                    best = std::min(best, pass.batches[b][i].host_s);
                point_ms.push_back(best * 1e3);
            }
        }
        std::sort(point_ms.begin(), point_ms.end());
        const double fastest_wall = *std::min_element(wall.begin(), wall.end());
        metrics = {
            {"wall_s", fastest_wall, "s"},
            {"setup_s", median(setup_times), "s"},
            {"cpu_s", *std::min_element(cpu.begin(), cpu.end()), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_cycles_per_s", static_cast<double>(sim_cycles) / fastest_wall,
             "1/s"},
            {"sim_insts_per_s", static_cast<double>(sim_insts) / fastest_wall,
             "1/s"},
            {"parallel_speedup", median(speedup), "x"},
            {"point_ms_p50", percentile(point_ms, 50), "ms"},
            {"sim_cycles", static_cast<double>(sim_cycles), "cycles"},
            {"sim_ws", ws_n > 0 ? ws_sum / static_cast<double>(ws_n) : 0.0,
             "ws"},
        };
        std::printf("pass wall seconds:");
        for (double w : wall)
            std::printf(" %.3f", w);
        std::printf("\nend-to-end (untraced; fastest of %zu passes, point "
                    "latency over %zu points):\n",
                    passes.size(), point_ms.size());
        printMetrics(metrics);
        std::printf("  %-28s %16.6g %s (%llu of %llu points)\n", "fail_frac",
                    static_cast<double>(failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            attempted, 1)),
                    "fraction", static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        if (point_ms.size() >= kMinPoints)
            std::printf("  %-28s %16.6g ms\n", "point_ms_p90",
                        percentile(point_ms, 90));
        else
            std::printf("  %-28s %16s (only %zu points; needs %zu)\n",
                        "point_ms_p90", "n/a", point_ms.size(), kMinPoints);
    } else {
        // Traced pass: same batches and threading, one capture + replay
        // per point.
        SpanLog spans;
        Layers total;
        std::mutex total_mutex;
        double untraced_point_s = 0.0;
        for (std::size_t b = 0; b < plan.batches.size(); ++b) {
            const Batch &batch = plan.batches[b];
            sim::AloneIpcCache &alone =
                batch.kind == BatchKind::Serial ? *warm_alone : *last_alone;
            const auto one = [&](std::size_t i) {
                bool match = false;
                const bool serial = batch.kind == BatchKind::Serial;
                const Layers l = tracePoint(
                    batch.points[i], batch.kind, alone,
                    fastest.batches[b][i].digest, spans,
                    serial ? &rotation : nullptr, &match);
                std::lock_guard<std::mutex> lock(total_mutex);
                total.add(l);
                ++attempted;
                if (!match) {
                    ++failed;
                    failures.push_back(batch.points[i].id +
                                       ": traced digest differs");
                }
            };
            if (batch.kind == BatchKind::Serial) {
                for (std::size_t i = 0; i < batch.points.size(); ++i)
                    one(i);
            } else {
                pool->forEach(batch.points.size(), one);
            }
            for (const PointRun &r : typical.batches[b])
                untraced_point_s += r.host_s;
        }
        if (!args.spans.empty()) {
            std::string error;
            if (!telemetry::writeTextFile(args.spans, spans.json(), &error))
                std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        }
        const std::uint64_t alone_runs = warm_alone_runs + fastest.alone_runs;
        std::uint64_t plan_points = 0;
        for (const Batch &batch : plan.batches)
            plan_points += batch.points.size();
        metrics = layerMetrics(total, fastest, plan_points, alone_runs,
                               untraced_point_s);
        printMetrics(metrics);
    }

    for (const std::string &f : failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
            kWorkloads.end())
            throw std::invalid_argument("unknown workload '" +
                                        args.workload + "'");
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
