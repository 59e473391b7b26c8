/**
 * @file
 * PADCTRC2: the compact on-disk workload-trace format, with probing
 * and full-file verification.
 *
 * No experiment reads trace files: every workload is synthetic
 * (workload::makeTraceSource always builds a SyntheticTrace). This
 * codec and the streaming reader in stream.hh have no caller outside
 * tests/trace, and ROADMAP item 9 schedules their deletion.
 *
 * PADCTRC2 delta-encodes each operation against its predecessor and
 * varint-packs the result, cutting generated traces to a few bytes per
 * op, while remaining integrity-checked end to end and decodable block
 * by block with bounded memory.
 *
 * The older PADCTRC1 (fixed 24-byte records) is recognised by its
 * magic only to be refused with a message saying so.
 *
 * ## Byte-level layout (all integers little-endian)
 *
 *   header (40 bytes):
 *     off size field
 *       0    8 magic "PADCTRC2"
 *       8    4 header_size (= 40; readers skip unknown trailing header
 *              bytes, so future revisions can extend it compatibly)
 *      12    4 block_ops    (max operations per block, > 0)
 *      16    8 op_count     (total operations in the file)
 *      24    8 index_offset (file offset of the block index)
 *      32    8 file_checksum (FNV-1a over all block payload bytes,
 *              in file order)
 *
 *   blocks (back to back, starting at header_size):
 *       0    4 payload_size   (encoded bytes that follow the 16-byte
 *                              block header)
 *       4    4 block_op_count (operations in this block; > 0,
 *                              <= header block_ops)
 *       8    8 block_checksum (FNV-1a over the payload)
 *      16  ... payload
 *
 *   block index (at index_offset, right after the last block):
 *       0    8 num_blocks
 *       8 16*N per block: { block_offset u64, first_op u64 }
 *            8 index_checksum (FNV-1a over the preceding index bytes)
 *
 *   The file ends exactly at the end of the index; extra bytes are
 *   rejected as trailing garbage.
 *
 * ## Per-op payload encoding
 *
 * Delta state (prev_addr, prev_pc) resets to 0 at each block start, so
 * every block is independently decodable. Each op is:
 *
 *   flags byte: bit0 = is_load, bit1 = dependent,
 *               bits 2-7 = compute_gap when < 63 (inline),
 *               value 63 = escape: the gap follows as a varint
 *   varint zigzag(addr - prev_addr)
 *   varint zigzag(pc - prev_pc)
 *   [varint compute_gap]   only when the flags escaped it
 *
 * Varints are LEB128 (7 bits per byte, high bit = continue, max 10
 * bytes for a u64); zigzag maps signed deltas to unsigned
 * ((n << 1) ^ (n >> 63)) so small negative strides stay short.
 */

#ifndef PADC_TRACE_FORMAT_HH
#define PADC_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"

namespace padc::trace
{

/** Default operations per PADCTRC2 block. */
constexpr std::uint32_t kDefaultBlockOps = 4096;

/** Cheaply probed facts about a trace file (header + index only). */
struct TraceFileInfo
{
    std::uint64_t op_count = 0;
    std::uint64_t file_bytes = 0;
    std::uint32_t block_ops = 0;
    std::uint64_t num_blocks = 0;
    std::uint64_t checksum = 0; ///< the header's payload checksum

    // Filled by verifyTraceFile's full decode; 0 from probeTraceFile.
    std::uint64_t distinct_lines = 0; ///< footprint, in cache lines
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/**
 * Incremental PADCTRC2 writer with crash-safe output: operations are
 * appended one at a time (bounded memory: one block buffered), and
 * close() writes the block index, back-patches the header, and
 * atomically renames the finished temp file onto @p path.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path,
                         std::uint32_t block_ops = kDefaultBlockOps);

    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** True while no write has failed. */
    bool ok() const;

    /** Why ok() is false; empty otherwise. */
    const std::string &error() const;

    /** Append one operation (buffered; flushed per block). */
    void append(const core::TraceOp &op);

    /** Operations appended so far. */
    std::uint64_t opCount() const;

    /**
     * Finish the file: flush the tail block, write the index, patch the
     * header, and rename into place. No file appears at the destination
     * path unless this returns true.
     *
     * @param error when non-null, receives a descriptive message.
     */
    bool close(std::string *error = nullptr);

  private:
    struct Impl;
    Impl *impl_;
};

/**
 * Write @p ops to @p path as PADCTRC2 (one-shot TraceWriter wrapper).
 */
bool writeTraceFileV2(const std::string &path,
                      const std::vector<core::TraceOp> &ops,
                      std::string *error = nullptr,
                      std::uint32_t block_ops = kDefaultBlockOps);

/**
 * Read a complete PADCTRC2 file into memory, validating every per-block
 * and whole-file checksum. Rejects, with a descriptive error: short or
 * bad-magic headers (PADCTRC1 by name), size/count disagreements,
 * checksum mismatches, truncated or over-running varints, and trailing
 * garbage.
 */
bool readTraceFileV2(const std::string &path,
                     std::vector<core::TraceOp> *ops,
                     std::string *error = nullptr);

/**
 * Identify a trace file from its header and block index without
 * decoding payloads. Cheap: O(header + index).
 */
bool probeTraceFile(const std::string &path, TraceFileInfo *info,
                    std::string *error = nullptr);

/**
 * Full-file verification with bounded memory: decode every block,
 * validate every checksum and count, and fill the footprint statistics
 * in @p info.
 */
bool verifyTraceFile(const std::string &path, TraceFileInfo *info,
                     std::string *error = nullptr);

/**
 * Block-granular random-access reader over a PADCTRC2 file, the
 * primitive under the streaming replay path: holds the file open,
 * keeps only the header and block index resident, and decodes one
 * block at a time (per-block checksums validated on every load).
 */
class BlockReader
{
  public:
    explicit BlockReader(const std::string &path);

    ~BlockReader();

    BlockReader(const BlockReader &) = delete;
    BlockReader &operator=(const BlockReader &) = delete;

    /** True when the file opened and its header/index validated. */
    bool ok() const { return ok_; }

    /** Why ok() is false; empty when ok(). */
    const std::string &error() const { return error_; }

    /** Header/index facts (footprint fields unfilled). */
    const TraceFileInfo &info() const { return info_; }

    /** Number of decodable blocks (>= 1 for a non-empty trace). */
    std::uint64_t numBlocks() const { return info_.num_blocks; }

    /**
     * Decode block @p block into @p ops (cleared first).
     * @return false with a descriptive message in @p error on I/O
     *         failure, checksum mismatch, or malformed payload.
     */
    bool readBlock(std::uint64_t block, std::vector<core::TraceOp> *ops,
                   std::string *error);

  private:
    struct Impl;
    Impl *impl_;
    TraceFileInfo info_;
    bool ok_ = false;
    std::string error_;
};

// --- primitives shared with the streaming reader ----------------------

/** Appends zigzag-LEB128 of @p delta to @p out. */
void putVarint(std::vector<unsigned char> &out, std::uint64_t value);

/** Zigzag a signed 64-bit delta. */
std::uint64_t zigzag(std::int64_t value);

/** Invert zigzag(). */
std::int64_t unzigzag(std::uint64_t value);

/**
 * Decode one LEB128 varint from [@p cursor, @p end).
 * @return false when the varint is truncated or longer than 10 bytes.
 */
bool getVarint(const unsigned char **cursor, const unsigned char *end,
               std::uint64_t *value);

/**
 * Encode @p ops (one block's worth) into @p payload; delta state starts
 * at zero, matching the per-block reset the decoder assumes.
 */
void encodeBlock(const std::vector<core::TraceOp> &ops, std::size_t begin,
                 std::size_t count, std::vector<unsigned char> *payload);

/**
 * Decode a block payload of exactly @p expected_ops operations,
 * appending to @p ops.
 * @return false with a message in @p error on malformed payloads
 *         (truncated varint, op-count/size disagreement).
 */
bool decodeBlock(const unsigned char *payload, std::size_t size,
                 std::uint64_t expected_ops,
                 std::vector<core::TraceOp> *ops, std::string *error);

} // namespace padc::trace

#endif // PADC_TRACE_FORMAT_HH
