#include "trace/format.hh"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/atomic_file.hh"
#include "common/fnv.hh"

namespace padc::trace
{

namespace
{

constexpr char kMagicV2[8] = {'P', 'A', 'D', 'C', 'T', 'R', 'C', '2'};
/** PADCTRC1, the retired fixed-record format: recognised to be refused. */
constexpr char kRetiredMagic[8] = {'P', 'A', 'D', 'C', 'T', 'R', 'C', '1'};
constexpr std::uint32_t kHeaderSize = 40;
constexpr std::uint32_t kBlockHeaderSize = 16;

/** Flags-byte layout (see the format spec in format.hh). */
constexpr std::uint8_t kFlagLoad = 1u << 0;
constexpr std::uint8_t kFlagDependent = 1u << 1;
constexpr std::uint32_t kGapEscape = 63;

/**
 * Bounds on one encoded op: flags + two one-byte varints at least;
 * flags + two 10-byte varints + an escaped 5-byte gap at most. Used
 * only for size sanity checks.
 */
constexpr std::uint64_t kMinOpBytes = 1 + 1 + 1;
constexpr std::uint64_t kMaxOpBytes = 1 + 10 + 10 + 5;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f != nullptr)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
putU32(unsigned char *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *in)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | in[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *in)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | in[i];
    return v;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

} // namespace

std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

void
putVarint(std::vector<unsigned char> &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<unsigned char>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<unsigned char>(value));
}

bool
getVarint(const unsigned char **cursor, const unsigned char *end,
          std::uint64_t *value)
{
    std::uint64_t result = 0;
    int shift = 0;
    const unsigned char *p = *cursor;
    // 10 bytes cover 70 bits; an 11th continuation byte is malformed.
    for (int i = 0; i < 10 && p < end; ++i, ++p) {
        result |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
        shift += 7;
        if ((*p & 0x80) == 0) {
            *cursor = p + 1;
            *value = result;
            return true;
        }
    }
    return false;
}

void
encodeBlock(const std::vector<core::TraceOp> &ops, std::size_t begin,
            std::size_t count, std::vector<unsigned char> *payload)
{
    Addr prev_addr = 0;
    Addr prev_pc = 0;
    for (std::size_t i = begin; i < begin + count; ++i) {
        const core::TraceOp &op = ops[i];
        std::uint8_t flags = 0;
        if (op.is_load)
            flags |= kFlagLoad;
        if (op.dependent)
            flags |= kFlagDependent;
        const bool escaped = op.compute_gap >= kGapEscape;
        flags |= static_cast<std::uint8_t>(
            (escaped ? kGapEscape : op.compute_gap) << 2);
        payload->push_back(flags);
        putVarint(*payload, zigzag(static_cast<std::int64_t>(
                                op.addr - prev_addr)));
        putVarint(*payload,
                  zigzag(static_cast<std::int64_t>(op.pc - prev_pc)));
        if (escaped)
            putVarint(*payload, op.compute_gap);
        prev_addr = op.addr;
        prev_pc = op.pc;
    }
}

bool
decodeBlock(const unsigned char *payload, std::size_t size,
            std::uint64_t expected_ops, std::vector<core::TraceOp> *ops,
            std::string *error)
{
    const unsigned char *cursor = payload;
    const unsigned char *end = payload + size;
    Addr prev_addr = 0;
    Addr prev_pc = 0;
    for (std::uint64_t i = 0; i < expected_ops; ++i) {
        if (cursor >= end) {
            return fail(error, "block payload exhausted at op " +
                                   std::to_string(i) + " of " +
                                   std::to_string(expected_ops));
        }
        const std::uint8_t flags = *cursor++;
        std::uint64_t addr_delta = 0;
        std::uint64_t pc_delta = 0;
        if (!getVarint(&cursor, end, &addr_delta) ||
            !getVarint(&cursor, end, &pc_delta)) {
            return fail(error, "truncated varint inside op " +
                                   std::to_string(i) + " of " +
                                   std::to_string(expected_ops));
        }
        core::TraceOp op;
        op.is_load = (flags & kFlagLoad) != 0;
        op.dependent = (flags & kFlagDependent) != 0;
        const std::uint32_t inline_gap = flags >> 2;
        if (inline_gap == kGapEscape) {
            std::uint64_t gap = 0;
            if (!getVarint(&cursor, end, &gap) ||
                gap > 0xFFFFFFFFULL) {
                return fail(error,
                            "truncated or out-of-range compute-gap "
                            "varint inside op " +
                                std::to_string(i));
            }
            op.compute_gap = static_cast<std::uint32_t>(gap);
        } else {
            op.compute_gap = inline_gap;
        }
        prev_addr += static_cast<Addr>(unzigzag(addr_delta));
        prev_pc += static_cast<Addr>(unzigzag(pc_delta));
        op.addr = prev_addr;
        op.pc = prev_pc;
        ops->push_back(op);
    }
    if (cursor != end) {
        return fail(error,
                    std::to_string(end - cursor) +
                        " leftover payload bytes after the block's " +
                        std::to_string(expected_ops) + " ops");
    }
    return true;
}

// --- v2 low-level reading ---------------------------------------------

namespace
{

struct V2Header
{
    std::uint32_t header_size = 0;
    std::uint32_t block_ops = 0;
    std::uint64_t op_count = 0;
    std::uint64_t index_offset = 0;
    std::uint64_t file_checksum = 0;
};

bool
readV2Header(std::FILE *file, const std::string &path, V2Header *out,
             std::string *error)
{
    unsigned char header[kHeaderSize];
    const std::size_t got = std::fread(header, 1, sizeof(header), file);
    if (got >= sizeof(kRetiredMagic) &&
        std::memcmp(header, kRetiredMagic, sizeof(kRetiredMagic)) == 0) {
        return fail(error,
                    "'" + path +
                        "' is a PADCTRC1 trace, a format no longer "
                        "supported");
    }
    if (got != sizeof(header)) {
        return fail(error, "'" + path + "' is shorter than the " +
                               std::to_string(kHeaderSize) +
                               "-byte PADCTRC2 header");
    }
    if (std::memcmp(header, kMagicV2, 8) != 0) {
        return fail(error,
                    "'" + path + "' is not a PADCTRC2 trace (bad magic)");
    }
    out->header_size = getU32(header + 8);
    out->block_ops = getU32(header + 12);
    out->op_count = getU64(header + 16);
    out->index_offset = getU64(header + 24);
    out->file_checksum = getU64(header + 32);
    if (out->header_size < kHeaderSize) {
        return fail(error, "'" + path + "' declares a " +
                               std::to_string(out->header_size) +
                               "-byte header, below the v2 minimum of " +
                               std::to_string(kHeaderSize));
    }
    if (out->block_ops == 0)
        return fail(error, "'" + path + "' declares block_ops = 0");
    if (out->index_offset < out->header_size) {
        return fail(error, "'" + path +
                               "' places its block index inside the "
                               "header: corrupt");
    }
    return true;
}

long
fileSize(std::FILE *file)
{
    if (std::fseek(file, 0, SEEK_END) != 0)
        return -1;
    return std::ftell(file);
}

struct IndexEntry
{
    std::uint64_t offset = 0;
    std::uint64_t first_op = 0;
};

/**
 * Read and integrity-check the block index; on success the file size
 * is known to exactly cover header + blocks + index, and the header's
 * op count to fit the blocks.
 */
bool
readV2Index(std::FILE *file, const std::string &path,
            const V2Header &header, std::vector<IndexEntry> *entries,
            std::string *error)
{
    const long size = fileSize(file);
    if (size < 0)
        return fail(error, "cannot seek in '" + path + "'");
    const std::uint64_t usize = static_cast<std::uint64_t>(size);
    if (usize < 16 || header.index_offset > usize - 16) {
        return fail(error, "'" + path +
                               "' is truncated before its block index");
    }
    if (std::fseek(file, static_cast<long>(header.index_offset),
                   SEEK_SET) != 0)
        return fail(error, "cannot seek in '" + path + "'");

    unsigned char count_buf[8];
    if (std::fread(count_buf, 1, 8, file) != 8)
        return fail(error, "'" + path + "' has a truncated block index");
    const std::uint64_t num_blocks = getU64(count_buf);

    // The 16-byte entries must fill the bytes between the count and the
    // index checksum exactly. Dividing, not multiplying, keeps a corrupt
    // count from wrapping the arithmetic.
    const std::uint64_t entry_bytes = usize - header.index_offset - 16;
    if (entry_bytes % 16 != 0 || num_blocks != entry_bytes / 16) {
        return fail(error, "'" + path + "' holds " +
                               std::to_string(usize) +
                               " bytes but its index promises " +
                               std::to_string(num_blocks) +
                               " blocks: truncated, corrupt, or "
                               "trailing garbage");
    }

    // No checksum covers the header, so bound its op count before any
    // reader sizes a buffer from it: each block holds 1..block_ops ops,
    // and each op takes at least kMinOpBytes of the bytes the blocks
    // span.
    const std::uint64_t block_bytes = header.index_offset - header.header_size;
    std::uint64_t max_ops = 0;
    if (block_bytes >= num_blocks * kBlockHeaderSize) {
        max_ops = (block_bytes - num_blocks * kBlockHeaderSize) / kMinOpBytes;
        if (num_blocks <= max_ops / header.block_ops)
            max_ops = num_blocks * header.block_ops;
    }
    if (header.op_count < num_blocks || header.op_count > max_ops) {
        return fail(error, "'" + path + "' header promises " +
                               std::to_string(header.op_count) +
                               " ops, outside the [" +
                               std::to_string(num_blocks) + ", " +
                               std::to_string(max_ops) + "] its " +
                               std::to_string(num_blocks) +
                               " blocks can hold: corrupt");
    }

    std::vector<unsigned char> raw(8 + num_blocks * 16);
    std::memcpy(raw.data(), count_buf, 8);
    if (num_blocks > 0 &&
        std::fread(raw.data() + 8, 1, num_blocks * 16, file) !=
            num_blocks * 16) {
        return fail(error, "'" + path + "' has a truncated block index");
    }
    unsigned char checksum_buf[8];
    if (std::fread(checksum_buf, 1, 8, file) != 8)
        return fail(error, "'" + path + "' has a truncated block index");
    const std::uint64_t stored = getU64(checksum_buf);
    const std::uint64_t computed = fnv1a(raw.data(), raw.size());
    if (stored != computed) {
        return fail(error, "'" + path + "' block-index checksum "
                                        "mismatch: corrupt index");
    }

    entries->clear();
    entries->reserve(num_blocks);
    for (std::uint64_t b = 0; b < num_blocks; ++b) {
        IndexEntry entry;
        entry.offset = getU64(raw.data() + 8 + b * 16);
        entry.first_op = getU64(raw.data() + 8 + b * 16 + 8);
        entries->push_back(entry);
    }
    return true;
}

/**
 * Read one block (header + payload) at @p offset, verifying the block
 * checksum, and decode it into @p ops (appended).
 *
 * @param payload_checksum when non-null, chained FNV over the payload
 *        bytes (for whole-file verification).
 * @param next_offset when non-null, receives the offset just past this
 *        block.
 */
bool
readV2BlockAt(std::FILE *file, const std::string &path,
              const V2Header &header, std::uint64_t offset,
              std::uint64_t block_number, std::vector<core::TraceOp> *ops,
              std::uint64_t *payload_checksum, std::uint64_t *next_offset,
              std::uint64_t *block_op_count, std::string *error)
{
    const std::string where =
        "block " + std::to_string(block_number) + " of '" + path + "'";
    if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0)
        return fail(error, "cannot seek to " + where);
    unsigned char bh[kBlockHeaderSize];
    if (std::fread(bh, 1, sizeof(bh), file) != sizeof(bh))
        return fail(error, where + " has a truncated header");
    const std::uint32_t payload_size = getU32(bh);
    const std::uint32_t op_count = getU32(bh + 4);
    const std::uint64_t stored_checksum = getU64(bh + 8);

    if (op_count == 0 || op_count > header.block_ops) {
        return fail(error, where + " declares " +
                               std::to_string(op_count) +
                               " ops, outside (0, block_ops = " +
                               std::to_string(header.block_ops) + "]");
    }
    if (payload_size == 0 ||
        payload_size > op_count * kMaxOpBytes ||
        offset + kBlockHeaderSize + payload_size > header.index_offset) {
        return fail(error, where + " declares an implausible payload of " +
                               std::to_string(payload_size) + " bytes");
    }

    std::vector<unsigned char> payload(payload_size);
    if (std::fread(payload.data(), 1, payload_size, file) !=
        payload_size) {
        return fail(error, where + " is truncated inside its payload");
    }
    if (fnv1a(payload.data(), payload.size()) != stored_checksum)
        return fail(error, where + " fails its checksum: corrupt");
    if (payload_checksum != nullptr) {
        *payload_checksum =
            fnv1a(payload.data(), payload.size(), *payload_checksum);
    }

    std::string decode_error;
    if (!decodeBlock(payload.data(), payload.size(), op_count, ops,
                     &decode_error)) {
        return fail(error, where + ": " + decode_error);
    }
    if (next_offset != nullptr)
        *next_offset = offset + kBlockHeaderSize + payload_size;
    if (block_op_count != nullptr)
        *block_op_count = op_count;
    return true;
}

constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;

/**
 * Walk every block of an open v2 file, checking all structural
 * invariants (index agreement, op totals, whole-file checksum).
 * @param ops when non-null, receives every decoded operation; when
 *        null the walk still decodes (bounded memory) for verification.
 * @param info when non-null, footprint statistics are accumulated.
 */
bool
walkV2(std::FILE *file, const std::string &path, const V2Header &header,
       const std::vector<IndexEntry> &index,
       std::vector<core::TraceOp> *ops, TraceFileInfo *info,
       std::string *error)
{
    std::vector<core::TraceOp> scratch;
    std::uint64_t offset = header.header_size;
    std::uint64_t ops_seen = 0;
    std::uint64_t checksum = kFnvSeed;

    // Footprint accounting: open-addressed set of line addresses.
    std::vector<std::uint64_t> lines;
    std::vector<bool> used;
    std::uint64_t distinct = 0;
    if (info != nullptr) {
        lines.assign(1024, 0);
        used.assign(1024, false);
    }
    const auto touch = [&](Addr addr) {
        const std::uint64_t line = addr / kLineBytes;
        if (distinct * 2 >= lines.size()) {
            std::vector<std::uint64_t> grown(lines.size() * 2, 0);
            std::vector<bool> grown_used(lines.size() * 2, false);
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (!used[i])
                    continue;
                std::size_t slot = (lines[i] * 0x9E3779B97F4A7C15ULL) &
                                   (grown.size() - 1);
                while (grown_used[slot])
                    slot = (slot + 1) & (grown.size() - 1);
                grown[slot] = lines[i];
                grown_used[slot] = true;
            }
            lines.swap(grown);
            used.swap(grown_used);
        }
        std::size_t slot =
            (line * 0x9E3779B97F4A7C15ULL) & (lines.size() - 1);
        while (used[slot]) {
            if (lines[slot] == line)
                return;
            slot = (slot + 1) & (lines.size() - 1);
        }
        lines[slot] = line;
        used[slot] = true;
        ++distinct;
    };

    for (std::size_t b = 0; b < index.size(); ++b) {
        if (index[b].offset != offset) {
            return fail(error,
                        "'" + path + "' index entry " + std::to_string(b) +
                            " points at byte " +
                            std::to_string(index[b].offset) +
                            " but block " + std::to_string(b) +
                            " starts at byte " + std::to_string(offset) +
                            ": corrupt");
        }
        if (index[b].first_op != ops_seen) {
            return fail(error,
                        "'" + path + "' index entry " + std::to_string(b) +
                            " claims first op " +
                            std::to_string(index[b].first_op) + " but " +
                            std::to_string(ops_seen) +
                            " ops precede the block: corrupt");
        }
        scratch.clear();
        std::vector<core::TraceOp> *sink = ops != nullptr ? ops : &scratch;
        std::uint64_t block_ops = 0;
        if (!readV2BlockAt(file, path, header, offset, b, sink, &checksum,
                           &offset, &block_ops, error)) {
            return false;
        }
        ops_seen += block_ops;
        if (info != nullptr) {
            const std::vector<core::TraceOp> &decoded = *sink;
            for (std::size_t i = decoded.size() - block_ops;
                 i < decoded.size(); ++i) {
                touch(decoded[i].addr);
                if (decoded[i].is_load)
                    ++info->loads;
                else
                    ++info->stores;
            }
        }
    }

    if (offset != header.index_offset) {
        return fail(error,
                    "'" + path + "' blocks end at byte " +
                        std::to_string(offset) +
                        " but the header places the index at byte " +
                        std::to_string(header.index_offset) + ": corrupt");
    }
    if (ops_seen != header.op_count) {
        return fail(error, "'" + path + "' holds " +
                               std::to_string(ops_seen) +
                               " ops but its header promises " +
                               std::to_string(header.op_count) +
                               ": corrupt");
    }
    if (checksum != header.file_checksum) {
        return fail(error, "'" + path + "' fails its whole-file "
                                        "checksum: corrupt");
    }
    if (info != nullptr)
        info->distinct_lines = distinct;
    return true;
}

/**
 * Open @p path and read its validated header and block index, filling
 * @p info's header facts: the common front of every reader, so each
 * refuses a PADCTRC1 file or a corrupt header the same way.
 */
bool
openV2(const std::string &path, FilePtr *file, V2Header *header,
       std::vector<IndexEntry> *index, TraceFileInfo *info,
       std::string *error)
{
    *info = TraceFileInfo{};
    file->reset(std::fopen(path.c_str(), "rb"));
    if (*file == nullptr)
        return fail(error, "cannot open '" + path + "' for reading");
    if (!readV2Header(file->get(), path, header, error) ||
        !readV2Index(file->get(), path, *header, index, error)) {
        return false;
    }
    info->op_count = header->op_count;
    info->block_ops = header->block_ops;
    info->num_blocks = index->size();
    info->checksum = header->file_checksum;
    // readV2Index proved the file ends exactly after the index.
    info->file_bytes = header->index_offset + 16 + index->size() * 16;
    return true;
}

} // namespace

// --- TraceWriter ------------------------------------------------------

struct TraceWriter::Impl
{
    explicit Impl(const std::string &path, std::uint32_t block_ops_in)
        : file(path), block_ops(block_ops_in == 0 ? 1 : block_ops_in)
    {
        // Placeholder header; close() back-patches the counts.
        unsigned char header[kHeaderSize] = {};
        std::memcpy(header, kMagicV2, 8);
        putU32(header + 8, kHeaderSize);
        putU32(header + 12, block_ops);
        file.write(header, sizeof(header));
    }

    AtomicFile file;
    std::uint32_t block_ops;
    std::vector<core::TraceOp> block;
    std::vector<unsigned char> payload;
    std::vector<IndexEntry> index;
    std::uint64_t op_count = 0;
    std::uint64_t checksum = kFnvSeed;
    std::string error;

    bool
    flushBlock()
    {
        if (block.empty())
            return true;
        const long at = file.tell();
        if (at < 0)
            return false;
        payload.clear();
        encodeBlock(block, 0, block.size(), &payload);
        unsigned char bh[kBlockHeaderSize];
        putU32(bh, static_cast<std::uint32_t>(payload.size()));
        putU32(bh + 4, static_cast<std::uint32_t>(block.size()));
        putU64(bh + 8, fnv1a(payload.data(), payload.size()));
        if (!file.write(bh, sizeof(bh)) ||
            !file.write(payload.data(), payload.size()))
            return false;
        checksum = fnv1a(payload.data(), payload.size(), checksum);
        index.push_back({static_cast<std::uint64_t>(at),
                         op_count - block.size()});
        block.clear();
        return true;
    }
};

TraceWriter::TraceWriter(const std::string &path, std::uint32_t block_ops)
    : impl_(new Impl(path, block_ops))
{
}

TraceWriter::~TraceWriter()
{
    delete impl_;
}

bool
TraceWriter::ok() const
{
    return impl_->file.ok();
}

const std::string &
TraceWriter::error() const
{
    return impl_->error.empty() ? impl_->file.error() : impl_->error;
}

std::uint64_t
TraceWriter::opCount() const
{
    return impl_->op_count;
}

void
TraceWriter::append(const core::TraceOp &op)
{
    if (!impl_->file.ok())
        return;
    impl_->block.push_back(op);
    ++impl_->op_count;
    if (impl_->block.size() >= impl_->block_ops)
        impl_->flushBlock();
}

bool
TraceWriter::close(std::string *error)
{
    Impl &impl = *impl_;
    if (!impl.flushBlock())
        return fail(error, this->error());

    const long index_at = impl.file.tell();
    if (index_at < 0)
        return fail(error, this->error());

    std::vector<unsigned char> raw(8 + impl.index.size() * 16);
    putU64(raw.data(), impl.index.size());
    for (std::size_t b = 0; b < impl.index.size(); ++b) {
        putU64(raw.data() + 8 + b * 16, impl.index[b].offset);
        putU64(raw.data() + 8 + b * 16 + 8, impl.index[b].first_op);
    }
    unsigned char index_checksum[8];
    putU64(index_checksum, fnv1a(raw.data(), raw.size()));

    unsigned char header[kHeaderSize];
    std::memcpy(header, kMagicV2, 8);
    putU32(header + 8, kHeaderSize);
    putU32(header + 12, impl.block_ops);
    putU64(header + 16, impl.op_count);
    putU64(header + 24, static_cast<std::uint64_t>(index_at));
    putU64(header + 32, impl.checksum);

    if (!impl.file.write(raw.data(), raw.size()) ||
        !impl.file.write(index_checksum, sizeof(index_checksum)) ||
        !impl.file.seekTo(0) ||
        !impl.file.write(header, sizeof(header)) || !impl.file.commit()) {
        return fail(error, this->error());
    }
    return true;
}

// --- BlockReader ------------------------------------------------------

struct BlockReader::Impl
{
    std::string path;
    FilePtr file;
    V2Header header;
    std::vector<IndexEntry> index;
};

BlockReader::BlockReader(const std::string &path) : impl_(new Impl)
{
    impl_->path = path;
    ok_ = openV2(path, &impl_->file, &impl_->header, &impl_->index, &info_,
                 &error_);
}

BlockReader::~BlockReader()
{
    delete impl_;
}

bool
BlockReader::readBlock(std::uint64_t block, std::vector<core::TraceOp> *ops,
                       std::string *error)
{
    ops->clear();
    if (!ok_)
        return fail(error, error_);
    if (block >= numBlocks()) {
        return fail(error, "block " + std::to_string(block) +
                               " out of range in '" + impl_->path + "'");
    }
    return readV2BlockAt(impl_->file.get(), impl_->path, impl_->header,
                         impl_->index[block].offset, block, ops, nullptr,
                         nullptr, nullptr, error);
}

// --- one-shot API -----------------------------------------------------

bool
writeTraceFileV2(const std::string &path,
                 const std::vector<core::TraceOp> &ops, std::string *error,
                 std::uint32_t block_ops)
{
    TraceWriter writer(path, block_ops);
    for (const core::TraceOp &op : ops)
        writer.append(op);
    return writer.close(error);
}

bool
readTraceFileV2(const std::string &path, std::vector<core::TraceOp> *ops,
                std::string *error)
{
    ops->clear();
    FilePtr file;
    V2Header header;
    std::vector<IndexEntry> index;
    TraceFileInfo info;
    if (!openV2(path, &file, &header, &index, &info, error))
        return false;
    ops->reserve(header.op_count);
    if (!walkV2(file.get(), path, header, index, ops, nullptr, error)) {
        ops->clear();
        return false;
    }
    return true;
}

bool
probeTraceFile(const std::string &path, TraceFileInfo *info,
               std::string *error)
{
    FilePtr file;
    V2Header header;
    std::vector<IndexEntry> index;
    return openV2(path, &file, &header, &index, info, error);
}

bool
verifyTraceFile(const std::string &path, TraceFileInfo *info,
                std::string *error)
{
    FilePtr file;
    V2Header header;
    std::vector<IndexEntry> index;
    return openV2(path, &file, &header, &index, info, error) &&
           walkV2(file.get(), path, header, index, nullptr, info, error);
}

} // namespace padc::trace
