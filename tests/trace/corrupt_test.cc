/**
 * @file
 * Corruption matrix for PADCTRC2: every class of damage a trace file
 * can suffer must produce a descriptive error, never a crash, hang, or
 * silent partial decode. Exercised through both the whole-file reader
 * and the full verifier (and, where relevant, the streaming path).
 * Files in the retired PADCTRC1 format are refused by name.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/format.hh"
#include "trace/stream.hh"
#include "workload/generator.hh"

namespace padc::trace
{
namespace
{

class CorruptTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per process: ctest runs this suite both as individual
        // cases and as one whole-binary smoke test, concurrently.
        path_ = ::testing::TempDir() + "padc_corrupt_test." +
                std::to_string(::getpid()) + ".trc";
        std::string error;
        ASSERT_TRUE(writeTraceFileV2(path_, sampleOps(), &error, 4))
            << error;
        bytes_ = slurp();
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    static std::vector<core::TraceOp>
    sampleOps()
    {
        workload::TraceParams params;
        params.seed = 7;
        workload::SyntheticTrace generator(params);
        std::vector<core::TraceOp> ops;
        for (int i = 0; i < 50; ++i)
            ops.push_back(generator.next());
        return ops;
    }

    std::string
    slurp() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    void
    rewrite(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    static std::uint64_t
    getU64(const std::string &bytes, std::size_t offset)
    {
        std::uint64_t value = 0;
        for (int i = 7; i >= 0; --i) {
            value = (value << 8) |
                    static_cast<unsigned char>(bytes[offset + i]);
        }
        return value;
    }

    static void
    putU64At(std::string *bytes, std::size_t offset, std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            (*bytes)[offset + i] =
                static_cast<char>((value >> (8 * i)) & 0xFF);
        }
    }

    /**
     * Expect both the reader and the verifier to reject the current
     * file with a message containing @p needle.
     */
    void
    expectRejected(const std::string &needle) const
    {
        std::vector<core::TraceOp> ops;
        std::string error;
        EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
        EXPECT_NE(error.find(needle), std::string::npos)
            << "reader error: " << error;

        TraceFileInfo info;
        error.clear();
        EXPECT_FALSE(verifyTraceFile(path_, &info, &error));
        EXPECT_FALSE(error.empty());
    }

    std::string path_;
    std::string bytes_;
};

TEST_F(CorruptTest, TruncatedHeaderRejected)
{
    for (const std::size_t keep : {0u, 4u, 8u, 39u}) {
        rewrite(bytes_.substr(0, keep));
        expectRejected("header");
    }
}

TEST_F(CorruptTest, BadMagicRejected)
{
    std::string bytes = bytes_;
    bytes[0] = 'X';
    rewrite(bytes);
    expectRejected("magic");
}

TEST_F(CorruptTest, TruncatedMidBlockRejected)
{
    // Chop inside the first block's payload: the exact-file-size index
    // check fires first with a truncation diagnostic.
    rewrite(bytes_.substr(0, 40 + 16 + 3));
    expectRejected("truncated");
}

TEST_F(CorruptTest, TruncatedMidVarintRejected)
{
    // Rewrite a single-block file whose payload we then cut inside a
    // varint, fixing up sizes/checksums so only the decode layer can
    // object. Build it by hand from a fresh encode.
    const auto ops = sampleOps();
    std::vector<unsigned char> payload;
    encodeBlock(ops, 0, ops.size(), &payload);
    // Cut the payload one byte short and decode directly.
    std::vector<core::TraceOp> out;
    std::string error;
    EXPECT_FALSE(decodeBlock(payload.data(), payload.size() - 1,
                             ops.size(), &out, &error));
    EXPECT_NE(error.find("varint"), std::string::npos) << error;
}

TEST_F(CorruptTest, LeftoverPayloadBytesRejected)
{
    const auto ops = sampleOps();
    std::vector<unsigned char> payload;
    encodeBlock(ops, 0, ops.size(), &payload);
    payload.push_back(0x00); // one byte the op count cannot explain
    std::vector<core::TraceOp> out;
    std::string error;
    EXPECT_FALSE(decodeBlock(payload.data(), payload.size(), ops.size(),
                             &out, &error));
    EXPECT_NE(error.find("leftover"), std::string::npos) << error;
}

TEST_F(CorruptTest, BadBlockChecksumRejected)
{
    // Flip a payload byte of the first block, then repair the file
    // checksum so the per-block checksum is what catches it... or
    // simpler: flip the stored block checksum itself.
    std::string bytes = bytes_;
    // First block header starts at 40; block_checksum at +8.
    const std::uint64_t stored = getU64(bytes, 40 + 8);
    putU64At(&bytes, 40 + 8, stored ^ 1);
    rewrite(bytes);
    expectRejected("checksum");
}

TEST_F(CorruptTest, CorruptPayloadByteRejected)
{
    std::string bytes = bytes_;
    bytes[40 + 16] = static_cast<char>(bytes[40 + 16] ^ 0x40);
    rewrite(bytes);
    expectRejected("checksum");
}

TEST_F(CorruptTest, BadFileChecksumRejected)
{
    std::string bytes = bytes_;
    const std::uint64_t stored = getU64(bytes, 32);
    putU64At(&bytes, 32, stored ^ 1);
    rewrite(bytes);
    expectRejected("checksum");
}

TEST_F(CorruptTest, OpCountDisagreementRejected)
{
    std::string bytes = bytes_;
    const std::uint64_t stored = getU64(bytes, 16);
    putU64At(&bytes, 16, stored + 1);
    rewrite(bytes);
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_FALSE(error.empty());
}

TEST_F(CorruptTest, TrailingGarbageRejected)
{
    rewrite(bytes_ + "extra bytes past the index");
    expectRejected("trailing garbage");
}

TEST_F(CorruptTest, BadIndexChecksumRejected)
{
    std::string bytes = bytes_;
    const std::uint64_t stored = getU64(bytes, bytes.size() - 8);
    putU64At(&bytes, bytes.size() - 8, stored ^ 1);
    rewrite(bytes);
    expectRejected("index");
}

TEST_F(CorruptTest, AbsurdIndexOffsetRejected)
{
    std::string bytes = bytes_;
    putU64At(&bytes, 24, 1ULL << 60);
    rewrite(bytes);
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_FALSE(error.empty());
}

TEST_F(CorruptTest, HugeOpCountRejectedBeforeAllocation)
{
    // No checksum covers the header: a flipped high bit in the op count
    // must be refused from the index, before any reader reserves room
    // for that many ops.
    const std::vector<core::TraceOp> fifty = sampleOps();
    std::vector<core::TraceOp> hundred = fifty;
    hundred.insert(hundred.end(), fifty.begin(), fifty.end());
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, hundred, &error)) << error;
    const std::string valid = slurp();
    ASSERT_EQ(getU64(valid, 16), 100u);
    for (const int bit : {62, 44}) {
        std::string bytes = valid;
        const std::uint64_t count = 100 | (1ULL << bit);
        putU64At(&bytes, 16, count);
        rewrite(bytes);
        const std::string named = std::to_string(count);

        TraceFileInfo info;
        error.clear();
        EXPECT_FALSE(probeTraceFile(path_, &info, &error)) << "bit " << bit;
        EXPECT_NE(error.find(named), std::string::npos) << error;

        std::vector<core::TraceOp> ops;
        error.clear();
        EXPECT_FALSE(readTraceFileV2(path_, &ops, &error)) << "bit " << bit;
        EXPECT_NE(error.find(named), std::string::npos) << error;
        EXPECT_TRUE(ops.empty());
    }
}

TEST_F(CorruptTest, Padctrc1RejectedByEveryReader)
{
    // A PADCTRC1 file as that format wrote it: "PADCTRC1", a u64 op
    // count, then one 24-byte record (addr, pc, u32 gap, u32 flags).
    std::string v1 = "PADCTRC1";
    v1.append(8, '\0');
    putU64At(&v1, 8, 1);
    v1.append(24, '\0');
    putU64At(&v1, 16, 0x1000);
    putU64At(&v1, 24, 0x400);
    v1[16 + 20] = 1; // load
    ASSERT_EQ(v1.size(), 40u);
    rewrite(v1);

    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(probeTraceFile(path_, &info, &error));
    EXPECT_NE(error.find("PADCTRC1"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(verifyTraceFile(path_, &info, &error));
    EXPECT_NE(error.find("PADCTRC1"), std::string::npos) << error;

    std::vector<core::TraceOp> ops;
    error.clear();
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_NE(error.find("PADCTRC1"), std::string::npos) << error;
    EXPECT_TRUE(ops.empty());

    BlockReader reader(path_);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("PADCTRC1"), std::string::npos)
        << reader.error();
    error.clear();
    EXPECT_FALSE(reader.readBlock(0, &ops, &error));
    EXPECT_NE(error.find("PADCTRC1"), std::string::npos) << error;

    StreamingFileTrace trace(path_);
    EXPECT_FALSE(trace.ok());
    EXPECT_NE(trace.error().find("PADCTRC1"), std::string::npos)
        << trace.error();

    // An empty PADCTRC1 file is shorter than a PADCTRC2 header, and is
    // still refused by name.
    std::string empty = v1.substr(0, 16);
    putU64At(&empty, 8, 0);
    rewrite(empty);
    error.clear();
    EXPECT_FALSE(probeTraceFile(path_, &info, &error));
    EXPECT_NE(error.find("PADCTRC1"), std::string::npos) << error;
}

TEST_F(CorruptTest, ZeroBlockOpsRejected)
{
    std::string bytes = bytes_;
    bytes[12] = 0;
    bytes[13] = 0;
    bytes[14] = 0;
    bytes[15] = 0;
    rewrite(bytes);
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_NE(error.find("block_ops"), std::string::npos) << error;
}

TEST_F(CorruptTest, StreamingReaderRejectsCorruptFileUpFront)
{
    std::string bytes = bytes_;
    const std::uint64_t stored = getU64(bytes, bytes.size() - 8);
    putU64At(&bytes, bytes.size() - 8, stored ^ 1);
    rewrite(bytes);
    StreamingFileTrace trace(path_);
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(trace.error().empty());
    // The infinite-stream contract still holds: next() is callable and
    // returns neutral ops rather than crashing.
    const core::TraceOp op = trace.next();
    EXPECT_EQ(op.addr, 0u);
}

TEST_F(CorruptTest, EveryPrefixIsRejectedOrEmpty)
{
    // Sweep all truncation points: no prefix may crash, hang, or decode
    // successfully (the file ends exactly at the index end).
    for (std::size_t keep = 0; keep < bytes_.size(); ++keep) {
        rewrite(bytes_.substr(0, keep));
        std::vector<core::TraceOp> ops;
        std::string error;
        EXPECT_FALSE(readTraceFileV2(path_, &ops, &error))
            << "prefix of " << keep << " bytes decoded";
        EXPECT_FALSE(error.empty()) << "prefix " << keep;
    }
}

} // namespace
} // namespace padc::trace
