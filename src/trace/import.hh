/**
 * @file
 * Importers for externally produced traces, normalizing foreign
 * formats into TraceOp streams that `padc trace convert` then writes
 * as PADCTRC2.
 *
 * Two formats are supported:
 *
 * 1. Text/CSV memtrace -- one memory operation per line:
 *
 *        addr,pc,rw,gap
 *
 *    addr/pc accept hex (0x... prefix) or decimal; rw is one of
 *    R/W, r/w, L/S, l/s, 0/1 (0 = read/load); gap is the decimal
 *    count of non-memory instructions preceding the op. Blank lines
 *    and lines starting with '#' are skipped. An optional fifth field
 *    `dep` (0/1) marks address-dependent ops. Malformed lines are
 *    rejected with a diagnostic naming the line number and the
 *    offending field -- imports are strict, never silently lossy.
 *
 * 2. ChampSim-style fixed binary records -- the 64-byte little-endian
 *    instruction record ChampSim's tracer emits:
 *
 *        off size field
 *          0    8 ip
 *          8    1 is_branch
 *          9    1 branch_taken
 *         10    2 destination_registers[2]
 *         12    4 source_registers[4]
 *         16   16 destination_memory[2]  (u64 each; 0 = unused)
 *         32   32 source_memory[4]       (u64 each; 0 = unused)
 *
 *    Each record contributes one load per non-zero source_memory slot
 *    and one store per non-zero destination_memory slot, at pc = ip;
 *    records without memory operands accumulate into the next op's
 *    compute gap. A trailing partial record is rejected as truncation.
 *    (ChampSim distributes traces xz-compressed; decompress first.)
 */

#ifndef PADC_TRACE_IMPORT_HH
#define PADC_TRACE_IMPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"

namespace padc::trace
{

/** Foreign formats `padc trace convert` can ingest. */
enum class ImportFormat : std::uint8_t
{
    Csv,      ///< text memtrace: addr,pc,rw,gap[,dep]
    ChampSim, ///< 64-byte fixed instruction records
};

/** What an import consumed and produced. */
struct ImportStats
{
    std::uint64_t lines = 0;   ///< text lines / binary records read
    std::uint64_t skipped = 0; ///< blank + comment lines (CSV only)
    std::uint64_t ops = 0;     ///< TraceOps produced
};

/**
 * Import a text/CSV memtrace (format above).
 * @return false with a per-line diagnostic ("line 17: ...") in
 *         @p error on the first malformed line; @p ops is cleared.
 */
bool importCsvMemtrace(const std::string &path,
                       std::vector<core::TraceOp> *ops,
                       std::string *error = nullptr,
                       ImportStats *stats = nullptr);

/**
 * Import a ChampSim-style binary record trace (format above).
 * @return false with a diagnostic naming the offending record on
 *         malformed input; @p ops is cleared.
 */
bool importChampSim(const std::string &path,
                    std::vector<core::TraceOp> *ops,
                    std::string *error = nullptr,
                    ImportStats *stats = nullptr);

/** Dispatch on @p format. */
bool importTrace(ImportFormat format, const std::string &path,
                 std::vector<core::TraceOp> *ops,
                 std::string *error = nullptr,
                 ImportStats *stats = nullptr);

} // namespace padc::trace

#endif // PADC_TRACE_IMPORT_HH
