/**
 * @file
 * In-process tests for the `padc trace` toolchain: capture, convert,
 * info, verify, and their exit-code contract (0 ok, 1 operation
 * failed, 2 usage error), including dispatch through the main driver.
 */

#include <gtest/gtest.h>

#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exp/driver.hh"
#include "trace/corpus.hh"
#include "trace/format.hh"
#include "trace/tools.hh"
#include "workload/trace_profile.hh"

namespace padc::trace
{
namespace
{

class ToolsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "padc_tools_test." +
               std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        workload::clearTraceProfiles();
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
        workload::clearTraceProfiles();
    }

    static int
    run(const std::vector<std::string> &args)
    {
        std::vector<const char *> argv;
        argv.push_back("padc");
        for (const std::string &arg : args)
            argv.push_back(arg.c_str());
        return traceToolMain(static_cast<int>(argv.size()), argv.data());
    }

    std::string dir_;
};

TEST_F(ToolsTest, MissingSubcommandIsUsageError)
{
    EXPECT_EQ(run({"trace"}), 2);
    EXPECT_EQ(run({"trace", "frobnicate"}), 2);
}

TEST_F(ToolsTest, HelpSucceeds)
{
    EXPECT_EQ(run({"trace", "help"}), 0);
}

TEST_F(ToolsTest, CaptureWritesTraceAndManifest)
{
    ASSERT_EQ(run({"trace", "capture", "--profile", "libquantum_06",
                   "--out", dir_, "--ops", "2000", "--seed", "3"}),
              0);
    const std::string name = "libquantum_06.c0.s3";
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + name + ".trc"));

    Corpus corpus;
    std::string error;
    ASSERT_TRUE(loadCorpus(dir_, &corpus, &error)) << error;
    ASSERT_EQ(corpus.entries.size(), 1u);
    EXPECT_EQ(corpus.entries[0].name, name);
    EXPECT_EQ(corpus.entries[0].ops, 2000u);
    EXPECT_EQ(corpus.entries[0].format, "padctrc2");
    ASSERT_TRUE(verifyCorpus(corpus, &error)) << error;
}

TEST_F(ToolsTest, CaptureUnknownProfileSuggests)
{
    EXPECT_EQ(run({"trace", "capture", "--profile", "libquantm_06",
                   "--out", dir_, "--ops", "100"}),
              1);
}

TEST_F(ToolsTest, CaptureMissingArgsIsUsageError)
{
    EXPECT_EQ(run({"trace", "capture", "--profile", "milc_06"}), 2);
    EXPECT_EQ(run({"trace", "capture", "--profile", "milc_06", "--out",
                   dir_, "--ops", "0"}),
              2);
}

TEST_F(ToolsTest, ConvertCsvIntoCorpus)
{
    const std::string csv = dir_ + "/mem.csv";
    {
        std::ofstream out(csv);
        out << "# addr,pc,rw,gap\n";
        for (int i = 0; i < 100; ++i) {
            out << (0x10000 + 64 * i) << "," << (0x400 + 4 * i)
                << (i % 4 == 0 ? ",W," : ",R,") << i % 8 << "\n";
        }
    }
    ASSERT_EQ(run({"trace", "convert", "--in", csv, "--format", "csv",
                   "--out", dir_, "--name", "memtrace"}),
              0);
    Corpus corpus;
    std::string error;
    ASSERT_TRUE(loadCorpus(dir_, &corpus, &error)) << error;
    const CorpusEntry *entry = findEntry(corpus, "memtrace");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ops, 100u);
    EXPECT_EQ(entry->source, "import:csv:" + csv);
}

TEST_F(ToolsTest, ConvertMalformedCsvFailsWithDiagnostic)
{
    const std::string csv = dir_ + "/bad.csv";
    {
        std::ofstream out(csv);
        out << "0x1000,0x400,R,1\nnot-a-line\n";
    }
    EXPECT_EQ(run({"trace", "convert", "--in", csv, "--format", "csv",
                   "--out", dir_, "--name", "bad"}),
              1);
    // Nothing half-written lands in the corpus.
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/bad.trc"));
}

TEST_F(ToolsTest, ConvertReblocksTrace)
{
    std::vector<core::TraceOp> ops;
    for (int i = 0; i < 1000; ++i) {
        ops.push_back({static_cast<std::uint32_t>(i % 16),
                       0x40000ULL + 64 * static_cast<std::uint64_t>(i),
                       0x400, true, false});
    }
    const std::string in = dir_ + "/in.trc";
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(in, ops, &error)) << error;
    ASSERT_EQ(run({"trace", "convert", "--in", in, "--format", "trace",
                   "--out", dir_, "--name", "reblocked", "--block-ops",
                   "100"}),
              0);
    Corpus corpus;
    ASSERT_TRUE(loadCorpus(dir_, &corpus, &error)) << error;
    const CorpusEntry *entry = findEntry(corpus, "reblocked");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->ops, 1000u);
    EXPECT_EQ(entry->source, "import:trace:" + in);

    TraceFileInfo info;
    ASSERT_TRUE(probeTraceFile(corpusFilePath(corpus, *entry), &info,
                               &error))
        << error;
    EXPECT_EQ(info.block_ops, 100u);
    EXPECT_EQ(info.num_blocks, 10u);
    std::vector<core::TraceOp> replayed;
    ASSERT_TRUE(readTraceFileV2(corpusFilePath(corpus, *entry), &replayed,
                                &error))
        << error;
    ASSERT_EQ(replayed.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(replayed[i].addr, ops[i].addr) << i;
}

TEST_F(ToolsTest, Padctrc1RejectedByInfoAndConvert)
{
    // Header ("PADCTRC1", u64 op count 1) and one zeroed 24-byte record.
    const std::string v1 = dir_ + "/v1.trc";
    {
        std::ofstream out(v1, std::ios::binary);
        std::string bytes = "PADCTRC1";
        bytes += '\x01';
        bytes.append(7 + 24, '\0');
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    testing::internal::CaptureStderr();
    const int info = run({"trace", "info", v1});
    const std::string info_err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(info, 1);
    EXPECT_NE(info_err.find("PADCTRC1"), std::string::npos) << info_err;
    EXPECT_NE(info_err.find("padc trace convert --format trace"),
              std::string::npos)
        << info_err;

    testing::internal::CaptureStderr();
    const int convert = run({"trace", "convert", "--in", v1, "--format",
                             "trace", "--out", dir_, "--name",
                             "converted"});
    const std::string convert_err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(convert, 1);
    EXPECT_NE(convert_err.find("PADCTRC1"), std::string::npos)
        << convert_err;
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/converted.trc"));
    EXPECT_FALSE(std::filesystem::exists(corpusManifestPath(dir_)));
}

TEST_F(ToolsTest, InfoAndVerifyReportOnFiles)
{
    ASSERT_EQ(run({"trace", "capture", "--profile", "milc_06", "--out",
                   dir_, "--ops", "500"}),
              0);
    const std::string file = dir_ + "/milc_06.c0.s1.trc";
    EXPECT_EQ(run({"trace", "info", file}), 0);
    EXPECT_EQ(run({"trace", "verify", file}), 0);
    EXPECT_EQ(run({"trace", "verify", "--corpus", dir_}), 0);
    EXPECT_EQ(run({"trace", "info", "/nonexistent/padc.trc"}), 1);
    EXPECT_EQ(run({"trace", "verify", "/nonexistent/padc.trc"}), 1);
}

TEST_F(ToolsTest, VerifyCatchesCorruptedCorpusFile)
{
    ASSERT_EQ(run({"trace", "capture", "--profile", "milc_06", "--out",
                   dir_, "--ops", "500"}),
              0);
    const std::string file = dir_ + "/milc_06.c0.s1.trc";
    {
        std::fstream out(file,
                         std::ios::binary | std::ios::in | std::ios::out);
        out.seekg(60);
        const char byte = static_cast<char>(out.get());
        out.seekp(60);
        out.put(static_cast<char>(byte ^ 0x5A)); // flip payload bits
    }
    EXPECT_EQ(run({"trace", "verify", "--corpus", dir_}), 1);
    EXPECT_EQ(run({"trace", "verify", file}), 1);
}

TEST_F(ToolsTest, DriverDispatchesTraceCommand)
{
    const char *argv[] = {"padc", "trace", "help"};
    EXPECT_EQ(exp::driverMain(3, argv), 0);
    const char *bad[] = {"padc", "trace"};
    EXPECT_EQ(exp::driverMain(2, bad), 2);
}

TEST_F(ToolsTest, DriverCorpusFlagRegistersProfiles)
{
    ASSERT_EQ(run({"trace", "capture", "--profile", "swim_00", "--out",
                   dir_, "--ops", "300", "--name", "swim_cap"}),
              0);
    // `padc run` with --corpus registers the entries before running;
    // use an unknown experiment so nothing heavy executes -- the
    // registration still happened.
    const std::string flag_dir = dir_;
    const char *argv[] = {"padc",     "run",
                          "no_such_experiment_xyz", "--corpus",
                          flag_dir.c_str()};
    EXPECT_EQ(exp::driverMain(5, argv), 2); // unknown selector
    EXPECT_TRUE(workload::isTraceProfile("swim_cap"));
}

TEST_F(ToolsTest, DriverCorpusFlagRejectsMissingManifest)
{
    const std::string empty = dir_ + "/empty";
    std::filesystem::create_directories(empty);
    const char *argv[] = {"padc", "run", "smoke", "--corpus",
                          empty.c_str()};
    EXPECT_EQ(exp::driverMain(5, argv), 2);
}

} // namespace
} // namespace padc::trace
