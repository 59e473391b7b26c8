/**
 * @file
 * Tests for the field tables (common/fields.hh) and everything derived
 * from them: every config and RunOptions leaf is keyed, every metric
 * leaf round-trips bit-exactly through the journal, three keys match
 * their pinned values, and strict record decoding names the dotted
 * path of a bad member.
 * The leaf lists come from the tables themselves (field_walk.hh).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "field_walk.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "telemetry/telemetry.hh"

namespace padc::sim
{
namespace
{

using test::forEachLeaf;
using test::leafDump;
using test::leafPaths;
using test::nudgeLeaf;

/** A 2-core PADC point with non-default values in every layer. */
SweepPoint
fancyPoint()
{
    SweepPoint point;
    point.config = SystemConfig::baseline(2);
    point.config = applyPolicy(point.config, PolicySetup::Padc);
    point.config.prefetcher.degree = 7;
    point.config.sched.promotion_threshold = 0.1875;
    point.config.sched.drop_thresholds = {1, 2, 3, 4};
    point.config.sched.drop_accuracy_bounds = {0.25, 0.5, 0.75};
    point.config.dram.timing.tRCD = 13;
    point.config.dram.geometry.permutation_interleaving = true;
    point.mix = {"mcf_06", "libquantum_06"};
    point.options.instructions = 12345;
    point.options.warmup = 678;
    point.options.max_cycles = 90000;
    // Past 2^53: a double-typed JSON number would corrupt this.
    point.options.mix_seed = (1ULL << 60) + 3;
    return point;
}

TEST(FieldTable, EveryConfigLeafIsKeyed)
{
    const SweepPoint base = fancyPoint();
    const std::uint64_t base_key = sweepPointKey(base);
    const std::vector<std::string> paths = leafPaths(base);
    const std::size_t leaves = paths.size();
    // 84 config leaves (collector is not a row), the mix
    // and 4 RunOptions leaves, each under its own name.
    ASSERT_EQ(leaves, 84u + base.mix.size() + 4u);
    EXPECT_EQ(std::set<std::string>(paths.begin(), paths.end()).size(),
              leaves);

    std::set<std::uint64_t> keys = {base_key};
    for (std::size_t i = 0; i < leaves; ++i) {
        SweepPoint point = base;
        const std::string path = nudgeLeaf(point, i);
        SCOPED_TRACE(path);
        const std::uint64_t key = sweepPointKey(point);
        EXPECT_NE(key, base_key) << "leaf not keyed";
        EXPECT_TRUE(keys.insert(key).second) << "key collides";
    }

    // Mix order is keyed too (no single-leaf nudge swaps two entries).
    SweepPoint swapped = base;
    std::swap(swapped.mix[0], swapped.mix[1]);
    EXPECT_NE(sweepPointKey(swapped), base_key);
}

/**
 * Give every leaf of @p value a distinct awkward value: doubles that
 * decimal cannot hold exactly, u64s past 2^53.
 */
template <typename T>
void
fillLeaves(T &value)
{
    std::uint64_t n = 0;
    forEachLeaf(value, "", [&n](const std::string &, auto &leaf) {
        using L = std::remove_cvref_t<decltype(leaf)>;
        ++n;
        if constexpr (std::is_same_v<L, double>)
            leaf = 0.1 * static_cast<double>(n) + 1.0 / 3.0;
        else if constexpr (std::is_same_v<L, std::string>)
            leaf = "line\nwith \"quotes\" " + std::to_string(n);
        else if constexpr (std::is_same_v<L, std::uint64_t>)
            leaf = (1ULL << 60) + n;
    });
}

class FieldTableJournal : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_field_table_test." +
                std::to_string(::getpid()) + ".padcjournal";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    /**
     * Nudge each leaf of @p base in turn and check the result comes
     * back bit-identical from the journal.
     */
    template <typename T>
    void
    walkRoundTrips(Result<T> base)
    {
        fillLeaves(base);
        base.outcome.status = PointStatus::Ok; // its nudge stays valid
        const std::size_t leaves = leafPaths(base).size();
        std::vector<Result<T>> nudged;
        {
            SweepJournal journal(path_);
            for (std::size_t i = 0; i < leaves; ++i) {
                Result<T> result = base;
                SCOPED_TRACE(nudgeLeaf(result, i));
                ASSERT_NE(leafDump(result), leafDump(base));
                journal.record(i, result);
                nudged.push_back(result);
            }
        }
        SweepJournal reopened(path_);
        EXPECT_EQ(reopened.loadedEntries(), leaves);
        for (std::size_t i = 0; i < leaves; ++i) {
            Result<T> replayed;
            ASSERT_TRUE(reopened.lookup(i, &replayed)) << i;
            EXPECT_EQ(leafDump(replayed), leafDump(nudged[i])) << i;
        }
    }

    std::string path_;
};

TEST_F(FieldTableJournal, EveryRunMetricsLeafRoundTripsBitExactly)
{
    Result<RunMetrics> base;
    base.value.cores.resize(2);
    // 2 cores x 13 + class_serviced + outcome status and detail.
    ASSERT_EQ(leafPaths(base).size(), 26u + kRequestClassCount + 2u);
    walkRoundTrips(base);
}

TEST_F(FieldTableJournal, EveryEvalLeafRoundTripsBitExactly)
{
    Result<MixEvaluation> base;
    base.value.metrics.cores.resize(2);
    base.value.summary.speedups.resize(2);
    walkRoundTrips(base);
}

TEST(FieldTable, KeysMatchTheValuesPinnedBeforeTheTables)
{
    // These values pin the key function: BENCH "key"/"config_hash"
    // values and journal replay depend on it. A deliberate key change
    // (a keyed field added or removed) updates them, and its change log
    // entry says that old journals stop replaying.
    const SweepPoint one{SystemConfig::baseline(1), {"libquantum_06"},
                         RunOptions{}};
    RunOptions four_options;
    four_options.mix_seed = 3;
    const SweepPoint four{
        applyPolicy(SystemConfig::baseline(4), PolicySetup::Padc),
        {"libquantum_06", "milc_06", "mcf_06", "lbm_06"},
        four_options};
    EXPECT_EQ(sweepPointKey(one), 0x1d22f735805b6afaULL);
    EXPECT_EQ(sweepPointKey(four), 0x6ef2a91bce5670cbULL);
    EXPECT_EQ(sweepPointKey(fancyPoint()), 0x005b146b2ee3b9f1ULL);
}

TEST(FieldTable, ExecutionDetailsAreNotKeyed)
{
    const SweepPoint base = fancyPoint();
    ASSERT_EQ(base.config.collector, nullptr);
    telemetry::Collector collector(telemetry::TelemetryConfig{});
    SweepPoint point = base;
    point.config.collector = &collector;
    EXPECT_EQ(sweepPointKey(point), sweepPointKey(base));
}

/**
 * decodeRecord of a two-core evaluate record after replacing the one
 * occurrence of @p from in its text by @p to; @return the error.
 */
std::string
decodeEdited(const std::string &from, const std::string &to)
{
    Result<MixEvaluation> result;
    result.value.metrics.cores.resize(2);
    result.value.metrics.cores[1].instructions = 777;
    result.value.metrics.class_serviced = {11, 12, 13, 14, 15};
    result.value.summary.speedups = {0.5, 0.75};
    std::string record = encodeRecord(result);
    const std::size_t at = record.find(from);
    EXPECT_NE(at, std::string::npos) << record;
    EXPECT_EQ(record.find(from, at + 1), std::string::npos) << record;
    record.replace(at, from.size(), to);
    Result<MixEvaluation> decoded;
    std::string error;
    EXPECT_FALSE(decodeRecord(record, &decoded, &error)) << record;
    return error;
}

TEST(FieldTable, DecodeNamesTheDottedPathOfABadMember)
{
    const std::string instructions = "'value.metrics.cores[1].instructions'";
    std::string error = decodeEdited("\"instructions\": \"777\",", "");
    EXPECT_NE(error.find(instructions), std::string::npos) << error;

    // u64s travel as decimal strings; a JSON number is mistyped.
    error = decodeEdited("\"instructions\": \"777\"",
                         "\"instructions\": 777");
    EXPECT_NE(error.find(instructions), std::string::npos) << error;

    // Out of range for an 8-bit member.
    error = decodeEdited("\"status\": \"0\"", "\"status\": \"256\"");
    EXPECT_NE(error.find("'outcome.status'"), std::string::npos) << error;

    // Array elements are named by index; a short array fails.
    error = decodeEdited("\"13\"", "\"-1\"");
    EXPECT_NE(error.find("'value.metrics.class_serviced[2]'"),
              std::string::npos)
        << error;
    error = decodeEdited(",\"15\"]", "]");
    EXPECT_NE(error.find("'value.metrics.class_serviced'"),
              std::string::npos)
        << error;
}

TEST(FieldTable, VectorsKeepTheirCoreBound)
{
    Result<RunMetrics> result;
    result.value.cores.resize(memctrl::kMaxCores);
    Result<RunMetrics> decoded;
    std::string error;
    EXPECT_TRUE(
        decodeRecord(encodeRecord(result), &decoded, &error))
        << error;
    result.value.cores.resize(memctrl::kMaxCores + 1);
    EXPECT_FALSE(
        decodeRecord(encodeRecord(result), &decoded, &error));
    EXPECT_NE(error.find("'value.cores'"), std::string::npos) << error;
}

TEST(FieldTable, NonFiniteDoublesDoNotDecode)
{
    Result<MixEvaluation> result;
    result.value.summary.uf = std::numeric_limits<double>::infinity();
    const std::string record = encodeRecord(result);
    EXPECT_NE(record.find("\"uf\": null"), std::string::npos) << record;
    Result<MixEvaluation> decoded;
    std::string error;
    EXPECT_FALSE(decodeRecord(record, &decoded, &error));
    EXPECT_NE(error.find("'value.summary.uf'"), std::string::npos) << error;
}

TEST(FieldTable, RecordsAreOneLineAndRejectUnknownStatus)
{
    Result<RunMetrics> result;
    result.value.cores.resize(2);
    result.outcome.detail = "two\nlines";
    const std::string record = encodeRecord(result);
    EXPECT_EQ(record.find('\n'), std::string::npos) << record;

    Result<RunMetrics> decoded;
    std::string error;
    ASSERT_TRUE(decodeRecord(record, &decoded, &error)) << error;
    EXPECT_EQ(decoded.outcome.detail, "two\nlines");

    result.outcome.status = static_cast<PointStatus>(3);
    EXPECT_FALSE(
        decodeRecord(encodeRecord(result), &decoded, &error));
    EXPECT_NE(error.find("status"), std::string::npos) << error;
}

} // namespace
} // namespace padc::sim
