/**
 * @file
 * Randomized cross-configuration invariant tests ("fuzz light"): short
 * simulations across a sweep of system shapes, asserting the global
 * invariants that must hold for any configuration:
 *
 *  - every core completes (no deadlock within a generous cycle cap),
 *  - fills delivered == reads serviced by the controllers,
 *  - usefulness never exceeds what was prefetched,
 *  - PUC <= PSC (+1 slack for boundary promotion), PAR in [0,1],
 *  - row outcome classes partition all serviced reads,
 *  - identical configuration => identical results (determinism).
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <tuple>

#include "sim/metrics.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace padc::sim
{
namespace
{

struct Shape
{
    std::uint32_t cores;
    SchedPolicyKind policy;
    bool apd;
    std::uint32_t channels;
    PrefetcherKind prefetcher;
    bool shared_l2;
    RowPolicy row_policy;
};

/**
 * Spell a shape out field by field. gtest otherwise prints the raw
 * object bytes, padding included, so the test names (and with them
 * `ctest -R` and `--rerun-failed`) changed from build to build.
 */
void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shape.cores << "core_" << toString(shape.policy) << "_"
        << (shape.apd ? "apd" : "noapd") << "_" << shape.channels << "ch_"
        << toString(shape.prefetcher) << (shape.shared_l2 ? "_shared-l2" : "")
        << "_" << toString(shape.row_policy);
}

class InvariantProperty : public ::testing::TestWithParam<Shape>
{
};

std::unique_ptr<System>
runShape(const Shape &shape,
         std::vector<std::unique_ptr<workload::SyntheticTrace>> *traces)
{
    SystemConfig cfg = SystemConfig::baseline(shape.cores);
    cfg.sched.kind = shape.policy;
    cfg.sched.apd_enabled = shape.apd;
    cfg.dram.geometry.channels = shape.channels;
    cfg.prefetcher.kind = shape.prefetcher;
    cfg.shared_l2 = shape.shared_l2;
    if (shape.shared_l2) {
        cfg.l2.size_bytes *= shape.cores;
        cfg.mshr_per_l2 = cfg.sched.request_buffer_size;
    }
    cfg.sched.row_policy = shape.row_policy;

    const auto mixes = workload::randomMixes(1, shape.cores, 0xF00D);
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < shape.cores; ++c) {
        traces->push_back(std::make_unique<workload::SyntheticTrace>(
            workload::traceParamsFor(mixes[0], c, 3)));
        sources.push_back(traces->back().get());
    }
    auto system = std::make_unique<System>(cfg, std::move(sources));
    system->run(8000, 30000000);
    return system;
}

TEST_P(InvariantProperty, GlobalInvariantsHold)
{
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    const auto system = runShape(GetParam(), &traces);
    const SystemConfig &cfg = system->config();

    std::uint64_t fills = 0;
    for (CoreId i = 0; i < cfg.num_cores; ++i) {
        ASSERT_TRUE(system->result(i).done) << "core " << i << " stuck";
        const CoreMemStats &ms = system->memStats(i);
        fills += ms.demand_fills + ms.prefetch_fills;
        EXPECT_LE(ms.useful_prefetch_fills,
                  ms.prefetch_fills + ms.promotions);
        EXPECT_LE(system->result(i).pref_used,
                  system->result(i).pref_sent + 1);
        EXPECT_GE(system->tracker().accuracy(i), 0.0);
        EXPECT_LE(system->tracker().accuracy(i), 1.0);
        EXPECT_LE(ms.fills_row_hit, ms.fills_total);
        EXPECT_LE(ms.useful_req_row_hits, ms.useful_req_fills);
    }

    std::uint64_t serviced = 0;
    for (std::uint32_t ch = 0; ch < system->numControllers(); ++ch) {
        const auto &cs = system->controller(ch).stats();
        serviced +=
            cs.demand_reads + cs.prefetch_reads + cs.forwarded_reads;
        // Row outcomes partition the serviced (non-forwarded) reads.
        EXPECT_EQ(cs.read_row_hits + cs.read_row_closed +
                      cs.read_row_conflicts,
                  cs.demand_reads + cs.prefetch_reads);
    }
    EXPECT_EQ(fills, serviced);

    const RunMetrics metrics = collectMetrics(*system);
    for (const auto &m : metrics.cores) {
        EXPECT_GT(m.ipc, 0.0);
        EXPECT_GE(m.acc, 0.0);
        EXPECT_LE(m.acc, 1.0);
        EXPECT_GE(m.cov, 0.0);
        EXPECT_LE(m.cov, 1.0);
        EXPECT_GE(m.rbhu, 0.0);
        EXPECT_LE(m.rbhu, 1.0);
    }

    // Stats export is total and finite.
    const StatSet stats = system->exportStats();
    EXPECT_TRUE(stats.has("cycles"));
    EXPECT_TRUE(stats.has("dram.reads"));
    for (const auto &[name, value] : stats.entries()) {
        EXPECT_GE(value, 0.0) << name;
        EXPECT_EQ(value, value) << name << " is NaN";
    }
}

TEST_P(InvariantProperty, Deterministic)
{
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces_a;
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces_b;
    const auto a = runShape(GetParam(), &traces_a);
    const auto b = runShape(GetParam(), &traces_b);
    EXPECT_EQ(a->cycles(), b->cycles());
    const StatSet sa = a->exportStats();
    const StatSet sb = b->exportStats();
    ASSERT_EQ(sa.entries().size(), sb.entries().size());
    for (std::size_t i = 0; i < sa.entries().size(); ++i) {
        EXPECT_EQ(sa.entries()[i].first, sb.entries()[i].first);
        EXPECT_DOUBLE_EQ(sa.entries()[i].second, sb.entries()[i].second)
            << sa.entries()[i].first;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InvariantProperty,
    ::testing::Values(
        Shape{1, SchedPolicyKind::FrFcfs, false, 1, PrefetcherKind::Stream,
              false, RowPolicy::Open},
        Shape{2, SchedPolicyKind::DemandFirst, false, 1,
              PrefetcherKind::Stride, false, RowPolicy::Open},
        Shape{2, SchedPolicyKind::Aps, true, 2, PrefetcherKind::Stream,
              false, RowPolicy::Open},
        Shape{4, SchedPolicyKind::Aps, true, 1, PrefetcherKind::Cdc,
              false, RowPolicy::Closed},
        Shape{4, SchedPolicyKind::Aps, true, 2, PrefetcherKind::Markov,
              true, RowPolicy::Open},
        Shape{4, SchedPolicyKind::PrefetchFirst, false, 1,
              PrefetcherKind::Stream, false, RowPolicy::Open},
        Shape{8, SchedPolicyKind::Aps, true, 1, PrefetcherKind::Stream,
              false, RowPolicy::Open}));

} // namespace
} // namespace padc::sim
