/**
 * @file
 * Tests for the field tables (common/fields.hh) and everything derived
 * from them: every config and RunOptions leaf is keyed and survives the
 * worker wire, every metric leaf round-trips bit-exactly through the
 * wire and the journal, three keys match their pinned values, and
 * strict decoding names the dotted path of a bad member.
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

#include "exp/json.hh"
#include "field_walk.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/wire.hh"

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

/** The point after an eval task's trip through the worker wire. */
SweepPoint
overTheWire(const SweepPoint &point, SweepPoint *alone)
{
    wire::WireTask task;
    task.kind = wire::WireTask::Kind::Eval;
    task.point = point;
    task.alone_base = point.config;
    task.alone_options = point.options;
    wire::WireTask decoded;
    std::string error;
    EXPECT_TRUE(wire::decodeTask(wire::encodeTask(task), &decoded, &error))
        << error;
    *alone = {decoded.alone_base, point.mix, decoded.alone_options};
    return decoded.point;
}

TEST(FieldTable, EveryConfigLeafIsKeyedAndSurvivesTheWire)
{
    const SweepPoint base = fancyPoint();
    const std::uint64_t base_key = sweepPointKey(base);
    const std::vector<std::string> paths = leafPaths(base);
    const std::size_t leaves = paths.size();
    // 84 config leaves (collector and event_skip are not rows), the mix
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

        SweepPoint alone;
        const SweepPoint decoded = overTheWire(point, &alone);
        EXPECT_EQ(sweepPointKey(decoded), key) << "dropped by the wire";
        EXPECT_EQ(sweepPointKey(alone), key) << "alone config dropped";
        EXPECT_EQ(leafDump(decoded), leafDump(point));
    }

    // Mix order is keyed too (no single-leaf nudge swaps two entries).
    SweepPoint swapped = base;
    std::swap(swapped.mix[0], swapped.mix[1]);
    EXPECT_NE(sweepPointKey(swapped), base_key);
    SweepPoint alone;
    EXPECT_EQ(sweepPointKey(overTheWire(swapped, &alone)),
              sweepPointKey(swapped));
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
     * back bit-identical from a result frame and from the journal.
     */
    template <typename T>
    void
    walkRoundTrips(Result<T> base, wire::WireTask::Kind kind)
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

                wire::WireResult frame;
                frame.kind = kind;
                if constexpr (std::is_same_v<T, RunMetrics>)
                    frame.run = result;
                else
                    frame.eval = result;
                wire::WireResult decoded;
                std::string error;
                ASSERT_TRUE(wire::decodeResult(wire::encodeResult(frame),
                                               &decoded, &error))
                    << error;
                if constexpr (std::is_same_v<T, RunMetrics>)
                    EXPECT_EQ(leafDump(decoded.run), leafDump(result));
                else
                    EXPECT_EQ(leafDump(decoded.eval), leafDump(result));

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
    walkRoundTrips(base, wire::WireTask::Kind::Run);
}

TEST_F(FieldTableJournal, EveryEvalLeafRoundTripsBitExactly)
{
    Result<MixEvaluation> base;
    base.value.metrics.cores.resize(2);
    base.value.summary.speedups.resize(2);
    walkRoundTrips(base, wire::WireTask::Kind::Eval);
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
    SweepPoint point = base;
    point.config.event_skip = !point.config.event_skip;
    EXPECT_EQ(sweepPointKey(point), sweepPointKey(base));
}

/** decodePoint of @p doc after @p edit; @return the error. */
template <typename Edit>
std::string
decodeEdited(Edit &&edit)
{
    exp::JsonWriter writer;
    writer.beginObject();
    wire::encodePoint(writer, "point", fancyPoint());
    writer.endObject();
    exp::JsonValue root;
    std::string error;
    EXPECT_TRUE(exp::parseJson(writer.str(), &root, &error)) << error;
    exp::JsonValue &point = root.object.at("point");
    edit(point);
    SweepPoint decoded;
    EXPECT_FALSE(wire::decodePoint(point, &decoded, &error));
    return error;
}

TEST(FieldTable, DecodeNamesTheDottedPathOfABadMember)
{
    const auto accuracy = [](exp::JsonValue &point) -> exp::JsonValue & {
        return point.object.at("config").object.at("sched").object.at(
            "accuracy");
    };
    std::string error = decodeEdited([&](exp::JsonValue &point) {
        accuracy(point).object.erase("interval");
    });
    EXPECT_NE(error.find("'config.sched.accuracy.interval'"),
              std::string::npos)
        << error;

    // u64s travel as decimal strings; a JSON number is mistyped.
    error = decodeEdited([&](exp::JsonValue &point) {
        exp::JsonValue &interval = accuracy(point).object.at("interval");
        interval.kind = exp::JsonValue::Kind::Number;
        interval.number = 100000;
    });
    EXPECT_NE(error.find("'config.sched.accuracy.interval'"),
              std::string::npos)
        << error;

    // Out of range for a 32-bit member.
    error = decodeEdited([](exp::JsonValue &point) {
        point.object.at("config").object.at("num_cores").string =
            "4294967296";
    });
    EXPECT_NE(error.find("'config.num_cores'"), std::string::npos) << error;

    // Array elements are named by index; a short array fails.
    error = decodeEdited([](exp::JsonValue &point) {
        point.object.at("config")
            .object.at("sched")
            .object.at("drop_thresholds")
            .array[2]
            .string = "-1";
    });
    EXPECT_NE(error.find("'config.sched.drop_thresholds[2]'"),
              std::string::npos)
        << error;
    error = decodeEdited([](exp::JsonValue &point) {
        point.object.at("config")
            .object.at("sched")
            .object.at("drop_accuracy_bounds")
            .array.pop_back();
    });
    EXPECT_NE(error.find("'config.sched.drop_accuracy_bounds'"),
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
        wire::decodeRecord(wire::encodeRecord(result), &decoded, &error))
        << error;
    result.value.cores.resize(memctrl::kMaxCores + 1);
    EXPECT_FALSE(
        wire::decodeRecord(wire::encodeRecord(result), &decoded, &error));
    EXPECT_NE(error.find("'value.cores'"), std::string::npos) << error;
}

TEST(FieldTable, NonFiniteDoublesDoNotDecode)
{
    Result<MixEvaluation> result;
    result.value.summary.uf = std::numeric_limits<double>::infinity();
    const std::string record = wire::encodeRecord(result);
    EXPECT_NE(record.find("\"uf\": null"), std::string::npos) << record;
    Result<MixEvaluation> decoded;
    std::string error;
    EXPECT_FALSE(wire::decodeRecord(record, &decoded, &error));
    EXPECT_NE(error.find("'value.summary.uf'"), std::string::npos) << error;
}

TEST(FieldTable, RecordsAreOneLineAndRejectUnknownStatus)
{
    Result<RunMetrics> result;
    result.value.cores.resize(2);
    result.outcome.detail = "two\nlines";
    const std::string record = wire::encodeRecord(result);
    EXPECT_EQ(record.find('\n'), std::string::npos) << record;

    Result<RunMetrics> decoded;
    std::string error;
    ASSERT_TRUE(wire::decodeRecord(record, &decoded, &error)) << error;
    EXPECT_EQ(decoded.outcome.detail, "two\nlines");

    result.outcome.status = static_cast<PointStatus>(3);
    EXPECT_FALSE(
        wire::decodeRecord(wire::encodeRecord(result), &decoded, &error));
    EXPECT_NE(error.find("status"), std::string::npos) << error;
}

} // namespace
} // namespace padc::sim
