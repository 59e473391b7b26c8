/**
 * @file
 * Unit tests for binary trace record/replay, including corruption
 * handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/trace_file.hh"
#include "workload/generator.hh"

namespace padc::core
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest runs each case as its own process,
        // in parallel under -j.
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = ::testing::TempDir() + "padc_trace_test_" + test->name() +
                ".trc";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

std::vector<TraceOp>
sampleOps()
{
    return {
        {3, 0x1000, 0x400, true, false},
        {0, 0xFFFFFFFFFFC0ULL, 0x404, false, true},
        {1000000, 0x40, 0x9999, true, true},
    };
}

TEST_F(TraceFileTest, RoundTrip)
{
    const auto ops = sampleOps();
    ASSERT_TRUE(writeTraceFile(path_, ops));
    std::vector<TraceOp> loaded;
    ASSERT_TRUE(readTraceFile(path_, &loaded));
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
    ASSERT_TRUE(writeTraceFile(path_, sampleOps()));
    FileTrace trace(path_);
    ASSERT_TRUE(trace.ok());
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
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile("/nonexistent/padc.trc", &ops, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    FileTrace trace("/nonexistent/padc.trc");
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(trace.error().empty());
}

TEST_F(TraceFileTest, BadMagicRejected)
{
    std::ofstream out(path_, std::ios::binary);
    out << "NOTATRACE-------garbage";
    out.close();
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile(path_, &ops, &error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST_F(TraceFileTest, ShortHeaderRejected)
{
    std::ofstream out(path_, std::ios::binary);
    out << "PADC"; // 4 of 16 header bytes
    out.close();
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile(path_, &ops, &error));
    EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST_F(TraceFileTest, TruncationRejected)
{
    ASSERT_TRUE(writeTraceFile(path_, sampleOps()));
    // Chop the last record in half.
    std::ifstream in(path_, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() - 10));
    out.close();
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile(path_, &ops, &error));
    EXPECT_TRUE(ops.empty());
    // The diagnostic reports the size disagreement, not just "failed".
    EXPECT_NE(error.find("truncated or corrupt"), std::string::npos)
        << error;
}

TEST_F(TraceFileTest, TrailingGarbageRejected)
{
    ASSERT_TRUE(writeTraceFile(path_, sampleOps()));
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "extra bytes past the promised op count";
    }
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile(path_, &ops, &error));
    EXPECT_NE(error.find("truncated or corrupt"), std::string::npos)
        << error;
}

TEST_F(TraceFileTest, CorruptCountRejectedBeforeAllocation)
{
    ASSERT_TRUE(writeTraceFile(path_, sampleOps()));
    // Overwrite the op count with an absurd value; the size check must
    // reject it up front instead of attempting a giant reserve().
    {
        std::fstream out(path_,
                         std::ios::binary | std::ios::in | std::ios::out);
        out.seekp(8);
        const unsigned char huge[8] = {0xff, 0xff, 0xff, 0xff,
                                       0xff, 0xff, 0xff, 0x7f};
        out.write(reinterpret_cast<const char *>(huge), 8);
    }
    std::vector<TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFile(path_, &ops, &error));
    EXPECT_NE(error.find("promises"), std::string::npos) << error;
}

TEST_F(TraceFileTest, UnwritableDirectoryReportsOpenFailure)
{
    std::string error;
    EXPECT_FALSE(
        writeTraceFile("/nonexistent-dir/padc.trc", sampleOps(), &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST_F(TraceFileTest, SuccessfulWriteLeavesNoTmpSibling)
{
    ASSERT_TRUE(writeTraceFile(path_, sampleOps()));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(TraceFileTest, FailedCommitCleansUpTmpAndKeepsDestination)
{
    // Destination is a directory, so the final rename cannot succeed;
    // the write must fail without leaving its temp sibling behind or
    // disturbing what already sits at the destination path.
    const std::string dir = ::testing::TempDir() + "padc_trace_dir.trc";
    std::filesystem::create_directories(dir + "/occupied");
    std::string error;
    EXPECT_FALSE(writeTraceFile(dir, sampleOps(), &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
    EXPECT_TRUE(std::filesystem::is_directory(dir + "/occupied"));
    std::filesystem::remove_all(dir);
}

TEST_F(TraceFileTest, CaptureFromSyntheticGeneratorMatchesReplay)
{
    workload::TraceParams params;
    params.seed = 42;
    workload::SyntheticTrace generator(params);
    const auto ops = captureTrace(generator, 2000);
    ASSERT_TRUE(writeTraceFile(path_, ops));

    FileTrace trace(path_);
    ASSERT_TRUE(trace.ok());
    generator.reset();
    for (int i = 0; i < 2000; ++i) {
        const TraceOp a = generator.next();
        const TraceOp b = trace.next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.compute_gap, b.compute_gap);
        ASSERT_EQ(a.is_load, b.is_load);
    }
}

TEST_F(TraceFileTest, EmptyTraceWritesButDoesNotReplay)
{
    ASSERT_TRUE(writeTraceFile(path_, {}));
    std::vector<TraceOp> ops;
    EXPECT_TRUE(readTraceFile(path_, &ops));
    EXPECT_TRUE(ops.empty());
    FileTrace trace(path_);
    EXPECT_FALSE(trace.ok()); // empty traces cannot drive a core
}

} // namespace
} // namespace padc::core
