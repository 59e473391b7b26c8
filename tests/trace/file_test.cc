/**
 * @file
 * Unit tests for whole-file trace record and replay: a PADCTRC2 file
 * written in one shot or op by op reads back and streams back exactly,
 * and every file-level failure (missing, unwritable, failed commit,
 * damaged header, truncation, trailing bytes, corrupt counts) is
 * reported instead of read.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/format.hh"
#include "trace/stream.hh"
#include "workload/generator.hh"

namespace padc::trace
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per case and process: ctest runs each case as its own
        // process, in parallel under -j.
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "padc_trace_file_test_" +
                test->name() + "." + std::to_string(::getpid()) + ".trc";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
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

    std::string path_;
};

std::vector<core::TraceOp>
sampleOps()
{
    return {
        {3, 0x1000, 0x400, true, false},
        {0, 0xFFFFFFFFFFC0ULL, 0x404, false, true},
        {1000000, 0x40, 0x9999, true, true},
    };
}

void
putU64At(std::string *bytes, std::size_t offset, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
}

std::uint64_t
getU64(const std::string &bytes, std::size_t offset)
{
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | static_cast<unsigned char>(bytes[offset + i]);
    return value;
}

TEST_F(TraceFileTest, RoundTrip)
{
    const auto ops = sampleOps();
    ASSERT_TRUE(writeTraceFileV2(path_, ops));
    std::vector<core::TraceOp> loaded;
    ASSERT_TRUE(readTraceFileV2(path_, &loaded));
    ASSERT_EQ(loaded.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(loaded[i].addr, ops[i].addr);
        EXPECT_EQ(loaded[i].pc, ops[i].pc);
        EXPECT_EQ(loaded[i].compute_gap, ops[i].compute_gap);
        EXPECT_EQ(loaded[i].is_load, ops[i].is_load);
        EXPECT_EQ(loaded[i].dependent, ops[i].dependent);
    }
}

TEST_F(TraceFileTest, FileTraceReplaysAndLoops)
{
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps()));
    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.next().addr, 0x1000u);
    EXPECT_EQ(trace.next().addr, 0xFFFFFFFFFFC0ULL);
    EXPECT_EQ(trace.next().addr, 0x40u);
    EXPECT_EQ(trace.next().addr, 0x1000u); // wrapped
    trace.reset();
    EXPECT_EQ(trace.next().addr, 0x1000u);
}

TEST_F(TraceFileTest, MissingFileFails)
{
    const std::string missing = "/nonexistent/padc.trc";
    std::vector<core::TraceOp> ops;
    TraceFileInfo info;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(missing, &ops, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(probeTraceFile(missing, &info, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(verifyTraceFile(missing, &info, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    StreamingFileTrace trace(missing);
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(trace.error().empty());
}

TEST_F(TraceFileTest, BadMagicRejected)
{
    // Long enough to hold a whole header, so the magic is what fails.
    rewrite("NOTATRACE-------garbage-------garbage-------garbage");
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ShortHeaderRejected)
{
    rewrite("PADC"); // 4 of 40 header bytes
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST_F(TraceFileTest, TruncationRejected)
{
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps()));
    // Chop into the block index at the end of the file.
    const std::string data = slurp();
    rewrite(data.substr(0, data.size() - 10));
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_TRUE(ops.empty());
    // The diagnostic names the damage, not just "failed".
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(TraceFileTest, TrailingGarbageRejected)
{
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps()));
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "extra bytes past the promised op count";
    }
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileV2(path_, &ops, &error));
    EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
}

TEST_F(TraceFileTest, CorruptCountRejectedBeforeAllocation)
{
    // Neither the header's op count nor the index's block count is
    // covered by a checksum that is checked before a reader sizes a
    // buffer from it; an absurd value in either must be rejected up
    // front instead of attempting a giant reserve().
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps()));
    const std::string valid = slurp();
    const std::uint64_t index_offset = getU64(valid, 24);
    const std::uint64_t absurd = 0x7FFFFFFFFFFFFFFFULL;
    for (const std::uint64_t offset : {std::uint64_t{16}, index_offset}) {
        std::string bytes = valid;
        putU64At(&bytes, offset, absurd);
        rewrite(bytes);

        std::vector<core::TraceOp> ops;
        std::string error;
        EXPECT_FALSE(readTraceFileV2(path_, &ops, &error))
            << "offset " << offset;
        EXPECT_NE(error.find("promises"), std::string::npos) << error;
        EXPECT_TRUE(ops.empty());

        TraceFileInfo info;
        error.clear();
        EXPECT_FALSE(probeTraceFile(path_, &info, &error))
            << "offset " << offset;
        EXPECT_NE(error.find("promises"), std::string::npos) << error;
    }
}

TEST_F(TraceFileTest, UnwritableDirectoryReportsOpenFailure)
{
    std::string error;
    EXPECT_FALSE(
        writeTraceFileV2("/nonexistent-dir/padc.trc", sampleOps(), &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(TraceFileTest, SuccessfulWriteLeavesNoTmpSibling)
{
    ASSERT_TRUE(writeTraceFileV2(path_, sampleOps()));
    EXPECT_TRUE(std::filesystem::exists(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(TraceFileTest, FailedCommitCleansUpTmpAndKeepsDestination)
{
    // The destination is a non-empty directory, so the final rename
    // cannot succeed: the write must fail without leaving its temp
    // sibling behind or disturbing what already sits at the path.
    const std::string dir = path_ + ".dir";
    std::filesystem::create_directories(dir + "/occupied");
    std::string error;
    EXPECT_FALSE(writeTraceFileV2(dir, sampleOps(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/occupied"));
    std::filesystem::remove_all(dir);
}

TEST_F(TraceFileTest, CaptureFromSyntheticGeneratorMatchesReplay)
{
    // Capture op by op in small blocks, so the replay crosses blocks.
    workload::TraceParams params;
    params.seed = 42;
    workload::SyntheticTrace generator(params);
    TraceWriter writer(path_, 256);
    for (int i = 0; i < 2000; ++i)
        writer.append(generator.next());
    std::string error;
    ASSERT_TRUE(writer.close(&error)) << error;

    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    generator.reset();
    for (int i = 0; i < 2000; ++i) {
        const core::TraceOp a = generator.next();
        const core::TraceOp b = trace.next();
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.pc, b.pc) << "op " << i;
        ASSERT_EQ(a.compute_gap, b.compute_gap) << "op " << i;
        ASSERT_EQ(a.is_load, b.is_load) << "op " << i;
        ASSERT_EQ(a.dependent, b.dependent) << "op " << i;
    }
}

TEST_F(TraceFileTest, EmptyTraceWritesButDoesNotReplay)
{
    ASSERT_TRUE(writeTraceFileV2(path_, {}));
    std::vector<core::TraceOp> ops;
    EXPECT_TRUE(readTraceFileV2(path_, &ops));
    EXPECT_TRUE(ops.empty());
    StreamingFileTrace trace(path_);
    EXPECT_FALSE(trace.ok()); // empty traces cannot drive a core
}

} // namespace
} // namespace padc::trace
