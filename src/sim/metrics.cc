#include "sim/metrics.hh"

#include <algorithm>
#include <cassert>

#include "common/stats.hh"

namespace padc::sim
{

std::uint64_t
RunMetrics::totalTraffic() const
{
    return trafficDemand() + trafficPrefUseful() + trafficPrefUseless() +
           trafficWriteback();
}

Cycle
RunMetrics::cycles() const
{
    Cycle cycles = 0;
    for (const auto &c : cores)
        cycles = std::max(cycles, c.cycles);
    return cycles;
}

std::uint64_t
RunMetrics::trafficDemand() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.traffic_demand;
    return total;
}

std::uint64_t
RunMetrics::trafficPrefUseful() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.traffic_pref_useful;
    return total;
}

std::uint64_t
RunMetrics::trafficPrefUseless() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.traffic_pref_useless;
    return total;
}

std::uint64_t
RunMetrics::trafficWriteback() const
{
    std::uint64_t total = 0;
    for (const auto &c : cores)
        total += c.traffic_writeback;
    return total;
}

RunMetrics
collectMetrics(const System &system)
{
    RunMetrics run;
    run.class_serviced = system.classServiced();
    const std::uint32_t cores = system.config().num_cores;
    run.cores.resize(cores);

    for (CoreId i = 0; i < cores; ++i) {
        const CoreResult &res = system.result(i);
        // Metrics cover the [warm-up, completion] window; with no
        // warm-up configured, the warm snapshot is all zeros.
        const core::CoreStats &cs = res.core_stats;
        const core::CoreStats &ws = res.warm_core_stats;
        const CoreMemStats &ms = res.mem_stats;
        const CoreMemStats &wm = res.warm_mem_stats;
        CoreMetrics &m = run.cores[i];

        const auto instructions = cs.instructions - ws.instructions;
        const auto cycles = res.done_cycle - res.warm_cycle;
        const auto loads = cs.loads - ws.loads;
        const auto stalls = cs.load_stall_cycles - ws.load_stall_cycles;
        const auto misses = ms.l2_demand_misses - wm.l2_demand_misses;
        const auto demand_fills = ms.demand_fills - wm.demand_fills;
        const auto pref_fills = ms.prefetch_fills - wm.prefetch_fills;
        const auto useful_fills =
            ms.useful_prefetch_fills - wm.useful_prefetch_fills;
        const auto sent = res.pref_sent - res.warm_pref_sent;
        const auto used = res.pref_used - res.warm_pref_used;

        m.instructions = instructions;
        m.cycles = cycles;
        m.ipc = ratio(static_cast<double>(instructions),
                      static_cast<double>(cycles));
        m.mpki = ratio(static_cast<double>(misses) * 1000.0,
                       static_cast<double>(instructions));
        m.spl = ratio(static_cast<double>(stalls),
                      static_cast<double>(loads));
        // Clamp: a prefetch sent before the warm-up boundary can be used
        // after it, so the windowed ratio can slightly exceed 1.
        m.acc = std::min(1.0, ratio(static_cast<double>(used),
                                    static_cast<double>(sent)));
        m.cov = ratio(static_cast<double>(useful_fills),
                      static_cast<double>(demand_fills + useful_fills));
        m.rbh = ratio(
            static_cast<double>(ms.fills_row_hit - wm.fills_row_hit),
            static_cast<double>(ms.fills_total - wm.fills_total));
        m.rbhu = ratio(static_cast<double>(ms.useful_req_row_hits -
                                           wm.useful_req_row_hits),
                       static_cast<double>(ms.useful_req_fills -
                                           wm.useful_req_fills));

        m.traffic_demand = demand_fills;
        m.traffic_pref_useful = useful_fills;
        // A prefetch filled before warm-up can be used after it, so the
        // windowed useful count can exceed the windowed fill count.
        m.traffic_pref_useless =
            pref_fills > useful_fills ? pref_fills - useful_fills : 0;
        m.traffic_writeback = ms.writebacks - wm.writebacks;
    }
    return run;
}

MultiCoreMetrics
multiCoreMetrics(const RunMetrics &together,
                 const std::vector<double> &ipc_alone)
{
    assert(together.cores.size() == ipc_alone.size());
    MultiCoreMetrics m;
    double inv_sum = 0.0;
    double min_is = 0.0;
    double max_is = 0.0;
    for (std::size_t i = 0; i < ipc_alone.size(); ++i) {
        const double is = ratio(together.cores[i].ipc, ipc_alone[i]);
        m.speedups.push_back(is);
        m.ws += is;
        inv_sum += is > 0.0 ? 1.0 / is : 0.0;
        if (i == 0) {
            min_is = is;
            max_is = is;
        } else {
            min_is = std::min(min_is, is);
            max_is = std::max(max_is, is);
        }
    }
    m.hs = inv_sum > 0.0
               ? static_cast<double>(ipc_alone.size()) / inv_sum
               : 0.0;
    m.uf = min_is > 0.0 ? max_is / min_is : 0.0;
    return m;
}

} // namespace padc::sim
