/**
 * @file
 * Unit tests for corpus manifests: save/load round trip, schema and
 * field validation, file-vs-manifest verification, and registration of
 * corpus entries as trace-backed workload profiles.
 */

#include <gtest/gtest.h>

#include <unistd.h>
#include <filesystem>
#include <fstream>

#include "trace/corpus.hh"
#include "trace/format.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"
#include "workload/trace_profile.hh"

namespace padc::trace
{
namespace
{

class CorpusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "padc_corpus_test." +
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

    std::vector<core::TraceOp>
    generatedOps(std::uint64_t count) const
    {
        workload::TraceParams params;
        params.seed = 11;
        workload::SyntheticTrace generator(params);
        std::vector<core::TraceOp> ops;
        for (std::uint64_t i = 0; i < count; ++i)
            ops.push_back(generator.next());
        return ops;
    }

    /** Write a trace and its manifest entry; returns the corpus. */
    Corpus
    corpusWithOneTrace(const std::string &name)
    {
        std::string error;
        EXPECT_TRUE(writeTraceFileV2(dir_ + "/" + name + ".trc",
                                     generatedOps(500), &error))
            << error;
        Corpus corpus;
        corpus.dir = dir_;
        CorpusEntry entry;
        EXPECT_TRUE(makeEntry(dir_, name + ".trc", name, "test", &entry,
                              &error))
            << error;
        upsertEntry(&corpus, entry);
        EXPECT_TRUE(saveCorpus(corpus, &error)) << error;
        return corpus;
    }

    std::string dir_;
};

TEST_F(CorpusTest, SaveLoadRoundTrip)
{
    const Corpus saved = corpusWithOneTrace("toy");
    Corpus loaded;
    std::string error;
    ASSERT_TRUE(loadCorpus(dir_, &loaded, &error)) << error;
    ASSERT_EQ(loaded.entries.size(), 1u);
    const CorpusEntry &a = saved.entries[0];
    const CorpusEntry &b = loaded.entries[0];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.file, b.file);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.format, b.format);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.checksum, b.checksum); // full 64 bits survive JSON
    EXPECT_EQ(a.footprint_lines, b.footprint_lines);
}

TEST_F(CorpusTest, MakeEntryFillsFingerprint)
{
    const Corpus corpus = corpusWithOneTrace("toy");
    const CorpusEntry &entry = corpus.entries[0];
    EXPECT_EQ(entry.ops, 500u);
    EXPECT_GT(entry.bytes, 0u);
    EXPECT_NE(entry.checksum, 0u);
    EXPECT_GT(entry.footprint_lines, 0u);
    EXPECT_EQ(entry.format, "padctrc2");
}

TEST_F(CorpusTest, MissingManifestFailsLoadButNotInit)
{
    Corpus corpus;
    std::string error;
    EXPECT_FALSE(loadCorpus(dir_, &corpus, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    ASSERT_TRUE(loadOrInitCorpus(dir_, &corpus, &error)) << error;
    EXPECT_TRUE(corpus.entries.empty());
    EXPECT_EQ(corpus.dir, dir_);
}

TEST_F(CorpusTest, WrongSchemaRejected)
{
    std::ofstream out(corpusManifestPath(dir_));
    out << "{\"schema\": \"padc-trace-corpus-v999\", \"traces\": []}\n";
    out.close();
    Corpus corpus;
    std::string error;
    EXPECT_FALSE(loadCorpus(dir_, &corpus, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST_F(CorpusTest, MalformedEntryNamesTheField)
{
    std::ofstream out(corpusManifestPath(dir_));
    out << "{\"schema\": \"padc-trace-corpus-v1\", \"traces\": "
           "[{\"name\": \"x\"}]}\n";
    out.close();
    Corpus corpus;
    std::string error;
    EXPECT_FALSE(loadCorpus(dir_, &corpus, &error));
    EXPECT_NE(error.find("traces[0]"), std::string::npos) << error;
}

TEST_F(CorpusTest, BadChecksumTextRejected)
{
    std::ofstream out(corpusManifestPath(dir_));
    out << "{\"schema\": \"padc-trace-corpus-v1\", \"traces\": [{"
           "\"name\": \"x\", \"file\": \"x.trc\", \"source\": \"t\", "
           "\"format\": \"padctrc2\", \"ops\": 1, \"bytes\": 1, "
           "\"checksum\": \"12ab\", \"footprint_lines\": 1}]}\n";
    out.close();
    Corpus corpus;
    std::string error;
    EXPECT_FALSE(loadCorpus(dir_, &corpus, &error));
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(CorpusTest, UnsupportedFormatRejected)
{
    corpusWithOneTrace("toy");
    std::string manifest;
    {
        std::ifstream in(corpusManifestPath(dir_));
        manifest.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    const std::string recorded = "\"padctrc2\"";
    const std::size_t at = manifest.find(recorded);
    ASSERT_NE(at, std::string::npos) << manifest;
    for (const std::string format : {"padctrc1", "not-a-format"}) {
        std::string edited = manifest;
        edited.replace(at, recorded.size(), "\"" + format + "\"");
        {
            std::ofstream out(corpusManifestPath(dir_), std::ios::trunc);
            out << edited;
        }
        Corpus corpus;
        std::string error;
        EXPECT_FALSE(loadCorpus(dir_, &corpus, &error)) << format;
        EXPECT_NE(error.find("traces[0]"), std::string::npos) << error;
        EXPECT_NE(error.find(format), std::string::npos) << error;
        if (format == "padctrc1") {
            EXPECT_NE(error.find("no longer supported"), std::string::npos)
                << error;
        }
    }
}

TEST_F(CorpusTest, UpsertReplacesByName)
{
    Corpus corpus;
    corpus.dir = dir_;
    upsertEntry(&corpus, {"a", "a.trc", "s1", "padctrc2", 1, 1, 1, 1});
    upsertEntry(&corpus, {"b", "b.trc", "s1", "padctrc2", 2, 2, 2, 2});
    upsertEntry(&corpus, {"a", "a2.trc", "s2", "padctrc2", 3, 3, 3, 3});
    ASSERT_EQ(corpus.entries.size(), 2u);
    ASSERT_NE(findEntry(corpus, "a"), nullptr);
    EXPECT_EQ(findEntry(corpus, "a")->file, "a2.trc");
    EXPECT_EQ(findEntry(corpus, "a")->ops, 3u);
}

TEST_F(CorpusTest, VerifyDetectsMutatedFile)
{
    Corpus corpus = corpusWithOneTrace("toy");
    std::string error;
    ASSERT_TRUE(verifyCorpus(corpus, &error)) << error;

    // Stale manifest: the recorded fingerprint no longer matches.
    corpus.entries[0].checksum ^= 1;
    corpus.entries[0].ops += 1;
    EXPECT_FALSE(verifyCorpus(corpus, &error));
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos)
        << error;
    EXPECT_NE(error.find("ops"), std::string::npos) << error;
}

TEST_F(CorpusTest, VerifyDetectsMissingFile)
{
    Corpus corpus = corpusWithOneTrace("toy");
    std::filesystem::remove(dir_ + "/toy.trc");
    std::string error;
    EXPECT_FALSE(verifyCorpus(corpus, &error));
    EXPECT_NE(error.find("toy"), std::string::npos) << error;
}

TEST_F(CorpusTest, RegisterCorpusMakesProfilesUsable)
{
    const Corpus corpus = corpusWithOneTrace("toy_trace");
    std::string error;
    ASSERT_TRUE(registerCorpus(corpus, &error)) << error;
    EXPECT_TRUE(workload::isTraceProfile("toy_trace"));

    // Trace-backed profiles slot into mixes through the same factory
    // the simulator uses.
    const workload::Mix mix = {"toy_trace"};
    ConfigErrors errors;
    EXPECT_TRUE(workload::validateMix(mix, &errors)) << errors.str();
    auto source = workload::makeTraceSource(mix, 0, 42);
    ASSERT_NE(source, nullptr);
    const auto ops = generatedOps(500);
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(source->next().addr, ops[i].addr) << i;

    // Idempotent for the same corpus.
    EXPECT_TRUE(registerCorpus(corpus, &error)) << error;
}

TEST_F(CorpusTest, RegisterConflictingNameFails)
{
    const Corpus corpus = corpusWithOneTrace("toy_trace");
    std::string error;
    ASSERT_TRUE(registerCorpus(corpus, &error)) << error;

    // A different file claiming the same profile name must be refused.
    const std::string other_dir = dir_ + "_other";
    std::filesystem::create_directories(other_dir);
    ASSERT_TRUE(writeTraceFileV2(other_dir + "/toy_trace.trc",
                                 generatedOps(100), &error))
        << error;
    Corpus other;
    other.dir = other_dir;
    CorpusEntry entry;
    ASSERT_TRUE(makeEntry(other_dir, "toy_trace.trc", "toy_trace", "t",
                          &entry, &error))
        << error;
    upsertEntry(&other, entry);
    EXPECT_FALSE(registerCorpus(other, &error));
    EXPECT_NE(error.find("already registered"), std::string::npos)
        << error;
    std::filesystem::remove_all(other_dir);
}

TEST_F(CorpusTest, RegisterShadowingBuiltinProfileFails)
{
    std::string error;
    ASSERT_TRUE(writeTraceFileV2(dir_ + "/milc.trc", generatedOps(100),
                                 &error))
        << error;
    Corpus corpus;
    corpus.dir = dir_;
    CorpusEntry entry;
    ASSERT_TRUE(
        makeEntry(dir_, "milc.trc", "milc_06", "t", &entry, &error))
        << error;
    upsertEntry(&corpus, entry);
    EXPECT_FALSE(registerCorpus(corpus, &error));
    EXPECT_NE(error.find("shadows"), std::string::npos) << error;
}

TEST_F(CorpusTest, RegisterMissingFileFails)
{
    Corpus corpus;
    corpus.dir = dir_;
    upsertEntry(&corpus,
                {"ghost", "ghost.trc", "t", "padctrc2", 1, 1, 1, 1});
    std::string error;
    EXPECT_FALSE(registerCorpus(corpus, &error));
    EXPECT_FALSE(error.empty());
}

TEST_F(CorpusTest, ManifestWriteIsAtomic)
{
    corpusWithOneTrace("toy");
    EXPECT_FALSE(
        std::filesystem::exists(corpusManifestPath(dir_) + ".tmp"));
}

} // namespace
} // namespace padc::trace
