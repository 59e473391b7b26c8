/**
 * @file
 * Evaluation metrics (paper Section 5.2): IPC, MPKI, SPL, ACC, COV,
 * RBH, RBHU, bus-traffic breakdown, and the multiprogrammed metrics
 * IS/WS/HS/UF computed against alone-run IPCs.
 */

#ifndef PADC_SIM_METRICS_HH
#define PADC_SIM_METRICS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "sim/system.hh"

namespace padc::sim
{

/** Per-core derived metrics for one run. */
struct CoreMetrics
{
    double ipc = 0.0;
    double mpki = 0.0; ///< L2 demand misses per 1000 instructions
    double spl = 0.0;  ///< stall cycles per load (Section 5.2)
    double acc = 0.0;  ///< prefetch accuracy, lifetime
    double cov = 0.0;  ///< prefetch coverage
    double rbh = 0.0;  ///< row-buffer hit rate, all serviced reads
    double rbhu = 0.0; ///< row-buffer hit rate, useful requests only

    // Bus traffic in cache lines, by class.
    std::uint64_t traffic_demand = 0;
    std::uint64_t traffic_pref_useful = 0;
    std::uint64_t traffic_pref_useless = 0;
    std::uint64_t traffic_writeback = 0;

    std::uint64_t instructions = 0;
    Cycle cycles = 0; ///< cycles to reach the instruction target
};

/** CoreMetrics's field table; see common/fields.hh. */
template <fields::Of<CoreMetrics> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("ipc", s.ipc);
    v("mpki", s.mpki);
    v("spl", s.spl);
    v("acc", s.acc);
    v("cov", s.cov);
    v("rbh", s.rbh);
    v("rbhu", s.rbhu);
    v("traffic_demand", s.traffic_demand);
    v("traffic_pref_useful", s.traffic_pref_useful);
    v("traffic_pref_useless", s.traffic_pref_useless);
    v("traffic_writeback", s.traffic_writeback);
    v("instructions", s.instructions);
    v("cycles", s.cycles);
}
static_assert(fields::complete<CoreMetrics>());

/** Whole-run derived metrics. */
struct RunMetrics
{
    std::vector<CoreMetrics> cores;

    /**
     * Requests serviced by the controllers over the whole run, indexed
     * by RequestClass enumerator value (channel-summed, lifetime -- the
     * warm-up window does not apply to controller-side counters).
     */
    std::array<std::uint64_t, kRequestClassCount> class_serviced{};

    /** Total bus traffic (fills + writebacks), in cache lines. */
    std::uint64_t totalTraffic() const;

    std::uint64_t trafficDemand() const;
    std::uint64_t trafficPrefUseful() const;
    std::uint64_t trafficPrefUseless() const;
    std::uint64_t trafficWriteback() const;

    /** Simulated cycles of the run: its slowest core's. */
    Cycle cycles() const;
};

/** RunMetrics's field table; see common/fields.hh. */
template <fields::Of<RunMetrics> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("cores", s.cores);
    v("class_serviced", s.class_serviced);
}
static_assert(fields::complete<RunMetrics>());

/** Extract metrics from a finished System run. */
RunMetrics collectMetrics(const System &system);

/**
 * Multiprogrammed summary metrics given alone-run IPCs
 * (paper Section 5.2 / 6.3.4):
 *   IS_i = IPC_together_i / IPC_alone_i
 *   WS = sum IS, HS = N / sum(1/IS), UF = max IS / min IS.
 */
struct MultiCoreMetrics
{
    std::vector<double> speedups; ///< IS per core
    double ws = 0.0;
    double hs = 0.0;
    double uf = 1.0;
};

/** MultiCoreMetrics's field table; see common/fields.hh. */
template <fields::Of<MultiCoreMetrics> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("speedups", s.speedups);
    v("ws", s.ws);
    v("hs", s.hs);
    v("uf", s.uf);
}
static_assert(fields::complete<MultiCoreMetrics>());

MultiCoreMetrics
multiCoreMetrics(const RunMetrics &together,
                 const std::vector<double> &ipc_alone);

} // namespace padc::sim

#endif // PADC_SIM_METRICS_HH
