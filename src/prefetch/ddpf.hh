/**
 * @file
 * Dynamic Data Prefetch Filtering (Zhuang & Lee; paper references
 * [40, 41], compared against in Section 6.12).
 *
 * A table of two-bit saturating counters records whether prefetches
 * from a given (PC, address) context were useful in the past; a
 * prefetch is issued only if its counter is at or above the filtering
 * threshold. The table is shared and untagged (gshare-style indexing),
 * so aliasing between contexts can suppress useful prefetches -- the
 * behaviour the paper's comparison highlights.
 */

#ifndef PADC_PREFETCH_DDPF_HH
#define PADC_PREFETCH_DDPF_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace padc::prefetch
{

/** DDPF configuration (paper Section 6.12 settings). */
struct DdpfConfig
{
    std::uint32_t table_entries = 4096; ///< prefetch history table size
    std::uint8_t threshold = 2;         ///< issue when counter >= threshold
    std::uint8_t initial = 3;           ///< counters start permissive
};

/** DdpfConfig's field table; see common/fields.hh. */
template <fields::Of<DdpfConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("table_entries", s.table_entries);
    v("threshold", s.threshold);
    v("initial", s.initial);
}
static_assert(fields::complete<DdpfConfig>());

/**
 * DDPF usefulness predictor; see file comment.
 */
class DdpfFilter
{
  public:
    explicit DdpfFilter(const DdpfConfig &config);

    /** Should a prefetch for (line_addr, pc) be issued? */
    bool allow(Addr line_addr, Addr pc) const;

    /**
     * Record the outcome of a completed prefetch: @p useful is true when
     * the prefetched line was referenced by a demand before eviction.
     */
    void update(Addr line_addr, Addr pc, bool useful);

    /** Statistics: prefetches suppressed by the filter. */
    std::uint64_t filtered() const { return filtered_; }

    /** Count a suppressed prefetch (called by the issue path). */
    void noteFiltered() { ++filtered_; }

  private:
    std::uint32_t indexOf(Addr line_addr, Addr pc) const;

    DdpfConfig config_;
    std::vector<std::uint8_t> counters_;
    std::uint64_t filtered_ = 0;
};

} // namespace padc::prefetch

#endif // PADC_PREFETCH_DDPF_HH
