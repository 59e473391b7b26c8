/**
 * @file
 * Unit tests for StreamingFileTrace: block-by-block replay equals the
 * whole-file decode, looping, and reset reproducibility.
 */

#include <gtest/gtest.h>

#include <unistd.h>
#include <cstdio>

#include "trace/format.hh"
#include "trace/stream.hh"
#include "workload/generator.hh"

namespace padc::trace
{
namespace
{

class StreamTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_stream_test." +
                std::to_string(::getpid()) + ".trc";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    static std::vector<core::TraceOp>
    generatedOps(std::uint64_t count)
    {
        workload::TraceParams params;
        params.seed = 99;
        workload::SyntheticTrace generator(params);
        std::vector<core::TraceOp> ops;
        for (std::uint64_t i = 0; i < count; ++i)
            ops.push_back(generator.next());
        return ops;
    }

    std::string path_;
};

void
expectOpEq(const core::TraceOp &a, const core::TraceOp &b, std::size_t i)
{
    ASSERT_EQ(a.addr, b.addr) << "op " << i;
    ASSERT_EQ(a.pc, b.pc) << "op " << i;
    ASSERT_EQ(a.compute_gap, b.compute_gap) << "op " << i;
    ASSERT_EQ(a.is_load, b.is_load) << "op " << i;
    ASSERT_EQ(a.dependent, b.dependent) << "op " << i;
}

TEST_F(StreamTest, StreamMatchesWholeFileDecode)
{
    const auto ops = generatedOps(3000);
    std::string error;
    // Small blocks so the stream crosses many block boundaries.
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error, 128)) << error;

    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        expectOpEq(trace.next(), ops[i], i);
}

TEST_F(StreamTest, LoopsAtEndOfTrace)
{
    const auto ops = generatedOps(300);
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error, 64)) << error;

    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    for (std::size_t i = 0; i < 2 * ops.size() + 17; ++i)
        expectOpEq(trace.next(), ops[i % ops.size()], i);
    EXPECT_TRUE(trace.error().empty());
}

TEST_F(StreamTest, ResetReproducesExactly)
{
    const auto ops = generatedOps(1000);
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error, 128)) << error;

    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    std::vector<core::TraceOp> first;
    for (int i = 0; i < 700; ++i)
        first.push_back(trace.next());
    trace.reset();
    for (std::size_t i = 0; i < first.size(); ++i)
        expectOpEq(trace.next(), first[i], i);
}

TEST_F(StreamTest, MissingFileNotOk)
{
    StreamingFileTrace trace("/nonexistent/padc.trc");
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(trace.error().empty());
}

TEST_F(StreamTest, EmptyTraceNotOk)
{
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, {}, &error)) << error;
    StreamingFileTrace trace(path_);
    EXPECT_FALSE(trace.ok()); // empty traces cannot drive a core
    EXPECT_NE(trace.error().find("no operations"), std::string::npos)
        << trace.error();
}

TEST_F(StreamTest, SingleOpTraceLoopsOnItself)
{
    const std::vector<core::TraceOp> ops = {
        {5, 0x1000, 0x400, true, false}};
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(path_, ops, &error)) << error;
    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(trace.next().addr, 0x1000u);
}

} // namespace
} // namespace padc::trace
