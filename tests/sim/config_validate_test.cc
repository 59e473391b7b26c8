/**
 * @file
 * Tests for structured configuration validation: every baseline and
 * policy setup passes, violations are reported with dotted field paths
 * that are rows of SystemConfig's field table and accumulate (not
 * fail-fast), and System construction surfaces them as one readable
 * std::invalid_argument instead of an assert.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "field_walk.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace padc::sim
{
namespace
{

/** Leaf paths of SystemConfig's field table ("sched.drop_thresholds[2]"). */
const std::set<std::string> &
tablePaths()
{
    static const std::set<std::string> paths = [] {
        const std::vector<std::string> leaves =
            test::leafPaths(SystemConfig{});
        return std::set<std::string>(leaves.begin(), leaves.end());
    }();
    return paths;
}

/**
 * True when @p errors reports @p field. Also checks that every reported
 * path is a row of the config table, so the validators' hand-written
 * dotted names cannot drift from the fields they describe.
 */
bool
mentions(const ConfigErrors &errors, const std::string &field)
{
    bool found = false;
    for (const ConfigError &error : errors.errors()) {
        EXPECT_EQ(tablePaths().count(error.field), 1u)
            << "'" << error.field << "' is not a SystemConfig table row";
        found = found || error.field == field;
    }
    return found;
}

TEST(ConfigValidate, BaselinesAreValid)
{
    for (std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        const ConfigErrors errors =
            SystemConfig::baseline(cores).validate();
        EXPECT_TRUE(errors.ok())
            << cores << "-core baseline: " << errors.str();
    }
}

TEST(ConfigValidate, EveryPolicySetupIsValid)
{
    const SystemConfig base = SystemConfig::baseline(4);
    for (const auto setup :
         {PolicySetup::NoPref, PolicySetup::DemandFirst,
          PolicySetup::DemandPrefEqual, PolicySetup::PrefetchFirst,
          PolicySetup::ApsOnly, PolicySetup::Padc, PolicySetup::PadcRank,
          PolicySetup::ApsNoUrgent, PolicySetup::PadcNoUrgent,
          PolicySetup::ApdOnly}) {
        const ConfigErrors errors = applyPolicy(base, setup).validate();
        EXPECT_TRUE(errors.ok())
            << policyLabel(setup) << ": " << errors.str();
    }
}

TEST(ConfigValidate, RejectsBadCoreCount)
{
    SystemConfig cfg = SystemConfig::baseline(4);
    cfg.num_cores = 0;
    EXPECT_TRUE(mentions(cfg.validate(), "num_cores"));
    cfg.num_cores = 65; // > kMaxCores (truncated_mask is 64 bits)
    EXPECT_TRUE(mentions(cfg.validate(), "num_cores"));
}

TEST(ConfigValidate, RejectsZeroMshrs)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.mshr_per_l2 = 0;
    EXPECT_TRUE(mentions(cfg.validate(), "mshr_per_l2"));
}

TEST(ConfigValidate, RejectsInvertedWriteDrainWatermarks)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.sched.write_drain_low = cfg.sched.write_drain_high;
    EXPECT_TRUE(mentions(cfg.validate(), "sched.write_drain_low"));
}

TEST(ConfigValidate, RejectsOutOfRangePromotionThreshold)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.sched.promotion_threshold = 1.5;
    EXPECT_TRUE(mentions(cfg.validate(), "sched.promotion_threshold"));
}

TEST(ConfigValidate, RejectsNonPowerOfTwoCacheSets)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.l2.size_bytes = cfg.l2.ways * 64 * 3; // 3 sets
    EXPECT_TRUE(mentions(cfg.validate(), "l2.size_bytes"))
        << cfg.validate().str();
}

TEST(ConfigValidate, RejectsInconsistentDramTiming)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.dram.timing.tRC =
        cfg.dram.timing.tRAS + cfg.dram.timing.tRP - 1;
    EXPECT_TRUE(mentions(cfg.validate(), "dram.timing.tRC"));
}

TEST(ConfigValidate, RejectsPrefetchEnabledWithoutAlgorithm)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.prefetch_enabled = true;
    cfg.prefetcher.kind = PrefetcherKind::None;
    EXPECT_TRUE(mentions(cfg.validate(), "prefetcher.kind"));
    // Disabling prefetch makes the same kind acceptable.
    cfg.prefetch_enabled = false;
    EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().str();
}

TEST(ConfigValidate, ViolationsAccumulateInsteadOfFailingFast)
{
    SystemConfig cfg = SystemConfig::baseline(2);
    cfg.mshr_per_l2 = 0;
    cfg.sched.promotion_threshold = -0.5;
    cfg.dram.timing.tBURST = 0;
    const ConfigErrors errors = cfg.validate();
    EXPECT_GE(errors.errors().size(), 3u) << errors.str();
    EXPECT_TRUE(mentions(errors, "mshr_per_l2"));
    EXPECT_TRUE(mentions(errors, "sched.promotion_threshold"));
    EXPECT_TRUE(mentions(errors, "dram.timing.tBURST"));
    // str() joins every diagnostic as "field: message".
    EXPECT_NE(errors.str().find("mshr_per_l2:"), std::string::npos);
    EXPECT_NE(errors.str().find("dram.timing.tBURST:"),
              std::string::npos);
}

TEST(ConfigValidate, ZeroedConfigReportsOnlyTableRows)
{
    // Zero every leaf: most validators fire at once, and mentions()
    // checks each reported path against the table.
    SystemConfig cfg = SystemConfig::baseline(2);
    test::forEachLeaf(cfg, "", [](const std::string &, auto &leaf) {
        leaf = {};
    });
    const ConfigErrors errors = cfg.validate();
    EXPECT_GE(errors.errors().size(), 20u) << errors.str();
    EXPECT_TRUE(mentions(errors, "sched.drop_accuracy_bounds[1]"))
        << errors.str();
}

TEST(ConfigValidate, SystemConstructionThrowsNamingTheField)
{
    SystemConfig cfg =
        applyPolicy(SystemConfig::baseline(1), PolicySetup::DemandFirst);
    cfg.mshr_per_l2 = 0;
    RunOptions options;
    options.instructions = 100;
    options.warmup = 0;
    try {
        runMix(cfg, {"milc_06"}, options);
        FAIL() << "invalid config was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("mshr_per_l2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ConfigValidate, MixSizeMismatchThrowsDescriptively)
{
    const SystemConfig cfg =
        applyPolicy(SystemConfig::baseline(2), PolicySetup::DemandFirst);
    RunOptions options;
    options.instructions = 100;
    options.warmup = 0;
    try {
        runMix(cfg, {"milc_06"}, options); // 1 profile, 2 cores
        FAIL() << "mismatched mix was accepted";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 profiles"), std::string::npos) << what;
        EXPECT_NE(what.find("2-core"), std::string::npos) << what;
    }
}

} // namespace
} // namespace padc::sim
