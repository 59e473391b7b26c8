/**
 * @file
 * DDR3 timing and geometry parameters for the DRAM device model.
 *
 * The baseline values model a DDR3-1333-like part behind a 667 MHz
 * command clock and a 16-byte-wide data bus (paper Table 4): a 64B cache
 * line is one BL=4 burst, i.e. two command-clock cycles of data-bus
 * occupancy. The simulator's global clock runs in processor cycles;
 * cpu_per_dram_cycle converts between the domains (4 GHz : 667 MHz = 6).
 *
 * With these parameters a row-hit read completes in
 * tCL + tBURST = 12 DRAM cycles = 72 processor cycles, and a row-conflict
 * read in tRP + tRCD + tCL + tBURST = 32 DRAM cycles = 192 processor
 * cycles -- preserving the paper's ~3x hit/conflict latency ratio
 * (Section 2.1: 12.5 ns vs 37.5 ns).
 */

#ifndef PADC_DRAM_TIMING_HH
#define PADC_DRAM_TIMING_HH

#include <cstdint>

#include "common/fields.hh"
#include "common/types.hh"

namespace padc::dram
{

/**
 * Raw DDR3 timing parameters, expressed in DRAM command-clock cycles.
 *
 * Only the constraints that matter at cache-line granularity are
 * modelled; sub-line column timings (tCCD interplay with BC4 etc.) are
 * out of scope since every access is one full-line burst.
 */
struct TimingParams
{
    /** Processor cycles per DRAM command-clock cycle. */
    std::uint32_t cpu_per_dram_cycle = 6;

    std::uint32_t tRCD = 10;  ///< activate -> column command
    std::uint32_t tRP = 10;   ///< precharge -> activate
    std::uint32_t tCL = 10;   ///< read column command -> first data
    std::uint32_t tCWL = 8;   ///< write column command -> first data
    std::uint32_t tRAS = 24;  ///< activate -> precharge (same bank)
    std::uint32_t tRC = 34;   ///< activate -> activate (same bank)
    std::uint32_t tBURST = 2; ///< data-bus occupancy of one 64B line (BL=4)
    std::uint32_t tCCD = 2;   ///< column command -> column command
    std::uint32_t tRRD = 4;   ///< activate -> activate (different banks)
    std::uint32_t tFAW = 20;  ///< window for at most four activates
    std::uint32_t tWTR = 5;   ///< end of write data -> read column command
    std::uint32_t tWR = 10;   ///< end of write data -> precharge
    std::uint32_t tRTP = 5;   ///< read column command -> precharge
    std::uint32_t tREFI = 5200; ///< average refresh interval
    std::uint32_t tRFC = 74;    ///< refresh cycle time

    bool refresh_enabled = false; ///< periodic refresh (off for parity
                                  ///< with the paper's experiments)

    /** Convert a duration in DRAM cycles to processor cycles. */
    Cycle toCpu(std::uint32_t dram_cycles) const
    {
        return static_cast<Cycle>(dram_cycles) * cpu_per_dram_cycle;
    }

    /**
     * Validate internal consistency (e.g. tRC >= tRAS + tRP).
     * @retval true when the parameter set is self-consistent.
     */
    bool valid() const;
};

/** TimingParams's field table; see common/fields.hh. */
template <fields::Of<TimingParams> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("cpu_per_dram_cycle", s.cpu_per_dram_cycle);
    v("tRCD", s.tRCD);
    v("tRP", s.tRP);
    v("tCL", s.tCL);
    v("tCWL", s.tCWL);
    v("tRAS", s.tRAS);
    v("tRC", s.tRC);
    v("tBURST", s.tBURST);
    v("tCCD", s.tCCD);
    v("tRRD", s.tRRD);
    v("tFAW", s.tFAW);
    v("tWTR", s.tWTR);
    v("tWR", s.tWR);
    v("tRTP", s.tRTP);
    v("tREFI", s.tREFI);
    v("tRFC", s.tRFC);
    v("refresh_enabled", s.refresh_enabled);
}
static_assert(fields::complete<TimingParams>());

/** Bank-interleaving granularity of the address map. */
enum class Interleave : std::uint8_t
{
    /**
     * Consecutive cache lines rotate across channels, then banks
     * (row:col:bank:channel:offset). The usual controller layout: a
     * sequential stream keeps one row open in *every* bank, and
     * concurrent streams continuously share banks -- which is what makes
     * demand/prefetch row-buffer interference (paper Fig. 2) pervasive.
     */
    Line,

    /**
     * Consecutive cache lines fill a whole row before switching banks
     * (row:bank:channel:col:offset). Streams get a private bank for a
     * full row; provided as an ablation.
     */
    Row,
};

/** DRAM array geometry. */
struct Geometry
{
    std::uint32_t channels = 1;          ///< independent channels/controllers
    std::uint32_t banks_per_channel = 8; ///< banks per channel
    std::uint32_t row_bytes = 4096;      ///< row-buffer (page) size

    Interleave interleave = Interleave::Line;

    /**
     * Permutation-based page interleaving (Zhang et al., ISCA-27):
     * XOR the bank index with the low bits of the row index to spread
     * conflicting rows across banks (paper Section 6.13).
     */
    bool permutation_interleaving = false;

    /** Cache lines per row. */
    std::uint32_t linesPerRow() const { return row_bytes / kLineBytes; }

    /** Power-of-two check for all dimensions. */
    bool valid() const;
};

/** Geometry's field table; see common/fields.hh. */
template <fields::Of<Geometry> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("channels", s.channels);
    v("banks_per_channel", s.banks_per_channel);
    v("row_bytes", s.row_bytes);
    v("interleave", s.interleave);
    v("permutation_interleaving", s.permutation_interleaving);
}
static_assert(fields::complete<Geometry>());

} // namespace padc::dram

#endif // PADC_DRAM_TIMING_HH
