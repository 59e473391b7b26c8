/**
 * @file
 * Unit tests for the PADCTRC2 trace format: encoding primitives,
 * round-trips, compression ratio, and crash-safe writes.
 */

#include <gtest/gtest.h>

#include <unistd.h>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/format.hh"
#include "workload/generator.hh"

namespace padc::trace
{
namespace
{

class FormatTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_format_test." +
                std::to_string(::getpid()) + ".trc";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

std::vector<core::TraceOp>
sampleOps()
{
    return {
        {3, 0x1000, 0x400, true, false},
        {0, 0xFFFFFFFFFFC0ULL, 0x404, false, true},
        {1000000, 0x40, 0x9999, true, true},
        {62, 0x1040, 0x400, true, false},
        {63, 0x1080, 0x400, false, false},
        {64, 0x10C0, 0x400, true, true},
    };
}

std::vector<core::TraceOp>
generatedOps(std::uint64_t count, std::uint64_t seed = 42)
{
    workload::TraceParams params;
    params.seed = seed;
    workload::SyntheticTrace generator(params);
    std::vector<core::TraceOp> ops;
    ops.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        ops.push_back(generator.next());
    return ops;
}

void
expectSameOps(const std::vector<core::TraceOp> &a,
              const std::vector<core::TraceOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "op " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "op " << i;
        ASSERT_EQ(a[i].compute_gap, b[i].compute_gap) << "op " << i;
        ASSERT_EQ(a[i].is_load, b[i].is_load) << "op " << i;
        ASSERT_EQ(a[i].dependent, b[i].dependent) << "op " << i;
    }
}

TEST(VarintTest, ZigzagRoundTrips)
{
    const std::int64_t values[] = {0,  1, -1, 63, -64, 1LL << 40,
                                   -(1LL << 40), INT64_MAX, INT64_MIN};
    for (const std::int64_t value : values)
        EXPECT_EQ(unzigzag(zigzag(value)), value) << value;
    // Small magnitudes map to small codes (the point of zigzag).
    EXPECT_LE(zigzag(-1), 2u);
    EXPECT_LE(zigzag(1), 2u);
}

TEST(VarintTest, VarintRoundTrips)
{
    std::vector<unsigned char> buf;
    const std::uint64_t values[] = {0,    1,     127,        128,
                                    300,  16384, 1ULL << 32, UINT64_MAX};
    for (const std::uint64_t value : values)
        putVarint(buf, value);
    const unsigned char *cursor = buf.data();
    const unsigned char *end = buf.data() + buf.size();
    for (const std::uint64_t value : values) {
        std::uint64_t got = 0;
        ASSERT_TRUE(getVarint(&cursor, end, &got));
        EXPECT_EQ(got, value);
    }
    EXPECT_EQ(cursor, end);
}

TEST(VarintTest, TruncatedVarintRejected)
{
    std::vector<unsigned char> buf;
    putVarint(buf, UINT64_MAX);
    for (std::size_t keep = 0; keep < buf.size(); ++keep) {
        const unsigned char *cursor = buf.data();
        std::uint64_t got = 0;
        EXPECT_FALSE(getVarint(&cursor, buf.data() + keep, &got))
            << "kept " << keep << " of " << buf.size();
    }
}

TEST(VarintTest, SmallValuesEncodeInOneByte)
{
    std::vector<unsigned char> buf;
    putVarint(buf, 100);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(BlockCodecTest, EncodeDecodeRoundTrips)
{
    const auto ops = sampleOps();
    std::vector<unsigned char> payload;
    encodeBlock(ops, 0, ops.size(), &payload);
    std::vector<core::TraceOp> decoded;
    std::string error;
    ASSERT_TRUE(decodeBlock(payload.data(), payload.size(), ops.size(),
                            &decoded, &error))
        << error;
    expectSameOps(ops, decoded);
}

TEST_F(FormatTest, OneShotRoundTrip)
{
    const auto ops = sampleOps();
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error)) << error;
    std::vector<core::TraceOp> loaded;
    ASSERT_TRUE(readTraceFileV2(path_, &loaded, &error)) << error;
    expectSameOps(ops, loaded);
}

TEST_F(FormatTest, EmptyTraceRoundTrips)
{
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, {}, &error)) << error;
    std::vector<core::TraceOp> loaded;
    ASSERT_TRUE(readTraceFileV2(path_, &loaded, &error)) << error;
    EXPECT_TRUE(loaded.empty());
}

TEST_F(FormatTest, MultiBlockRoundTrip)
{
    const auto ops = generatedOps(10000);
    std::string error;
    // Small blocks force many of them.
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error, 256)) << error;
    std::vector<core::TraceOp> loaded;
    ASSERT_TRUE(readTraceFileV2(path_, &loaded, &error)) << error;
    expectSameOps(ops, loaded);

    TraceFileInfo info;
    ASSERT_TRUE(probeTraceFile(path_, &info, &error)) << error;
    EXPECT_EQ(info.op_count, 10000u);
    EXPECT_EQ(info.block_ops, 256u);
    EXPECT_EQ(info.num_blocks, (10000u + 255u) / 256u);
}

TEST_F(FormatTest, IncrementalWriterMatchesOneShot)
{
    const auto ops = generatedOps(5000);
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error, 512)) << error;

    const std::string streamed = ::testing::TempDir() + "padc_streamed." +
                                 std::to_string(::getpid()) + ".trc";
    TraceWriter writer(streamed, 512);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (const core::TraceOp &op : ops)
        writer.append(op);
    EXPECT_EQ(writer.opCount(), ops.size());
    ASSERT_TRUE(writer.close(&error)) << error;

    // Byte-identical: same ops, same block shape, same metadata.
    std::ifstream a(path_, std::ios::binary);
    std::ifstream b(streamed, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    std::remove(streamed.c_str());
}

TEST_F(FormatTest, AtMostHalfOfFixedRecordsOnGeneratedTraces)
{
    const auto ops = generatedOps(50000);
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error)) << error;
    const auto size = std::filesystem::file_size(path_);
    // The headline claim: >= 2x smaller than a 16-byte header plus
    // fixed 24-byte records.
    const auto fixed = 16 + 24 * ops.size();
    EXPECT_LE(size * 2, fixed)
        << "fixed records " << fixed << " bytes, PADCTRC2 " << size
        << " bytes";
}

TEST_F(FormatTest, VerifyFillsFootprint)
{
    // Two ops on one line, one op on another: footprint 2 lines.
    std::vector<core::TraceOp> ops = {
        {0, 0x1000, 0x400, true, false},
        {0, 0x1010, 0x404, false, false},
        {0, 0x2000, 0x408, true, false},
    };
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error)) << error;
    TraceFileInfo info;
    ASSERT_TRUE(verifyTraceFile(path_, &info, &error)) << error;
    EXPECT_EQ(info.op_count, 3u);
    EXPECT_EQ(info.distinct_lines, 2u);
    EXPECT_EQ(info.loads, 2u);
    EXPECT_EQ(info.stores, 1u);
}

TEST_F(FormatTest, NoTmpFileLeftBehindAfterSuccess)
{
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps(), &error)) << error;
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(FormatTest, FailedWriteLeavesNoFile)
{
    std::string error;
    EXPECT_FALSE(
        writeTraceFileV2("/nonexistent-dir/padc.trc", sampleOps(), &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    EXPECT_FALSE(std::filesystem::exists("/nonexistent-dir/padc.trc"));
}

} // namespace
} // namespace padc::trace
