/**
 * @file
 * Unit tests for policy/prefetcher name conversions.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/types.hh"

namespace padc
{
namespace
{

TEST(ConfigTest, SchedPolicyNames)
{
    EXPECT_EQ(toString(SchedPolicyKind::FrFcfs), "demand-pref-equal");
    EXPECT_EQ(toString(SchedPolicyKind::DemandFirst), "demand-first");
    EXPECT_EQ(toString(SchedPolicyKind::PrefetchFirst), "prefetch-first");
    EXPECT_EQ(toString(SchedPolicyKind::Aps), "aps");
}

TEST(ConfigTest, ParseSchedPolicyRoundTrip)
{
    for (SchedPolicyKind kind :
         {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
          SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
        SchedPolicyKind parsed{};
        ASSERT_TRUE(parseSchedPolicy(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
}

TEST(ConfigTest, ParseSchedPolicyAliases)
{
    SchedPolicyKind kind{};
    EXPECT_TRUE(parseSchedPolicy("frfcfs", &kind));
    EXPECT_EQ(kind, SchedPolicyKind::FrFcfs);
    EXPECT_TRUE(parseSchedPolicy("demand-prefetch-equal", &kind));
    EXPECT_EQ(kind, SchedPolicyKind::FrFcfs);
    EXPECT_TRUE(parseSchedPolicy("padc", &kind));
    EXPECT_EQ(kind, SchedPolicyKind::Aps);
}

TEST(ConfigTest, ParseSchedPolicyRejectsUnknownAndPreservesOutput)
{
    SchedPolicyKind kind = SchedPolicyKind::DemandFirst;
    EXPECT_FALSE(parseSchedPolicy("bogus", &kind));
    EXPECT_EQ(kind, SchedPolicyKind::DemandFirst);
}

TEST(ConfigTest, PrefetcherNamesRoundTrip)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Stream,
          PrefetcherKind::Stride, PrefetcherKind::Cdc,
          PrefetcherKind::Markov}) {
        PrefetcherKind parsed{};
        ASSERT_TRUE(parsePrefetcher(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PrefetcherKind parsed{};
    EXPECT_FALSE(parsePrefetcher("quantum", &parsed));
}

TEST(ConfigTest, RequestClassNames)
{
    EXPECT_EQ(toString(RequestClass::DemandRead), "demand-read");
    EXPECT_EQ(toString(RequestClass::Prefetch), "prefetch");
    EXPECT_EQ(toString(RequestClass::Writeback), "writeback");
    EXPECT_EQ(toString(RequestClass::PtwRead), "ptw-read");
    EXPECT_EQ(toString(RequestClass::DramCacheFill), "dram-cache-fill");
}

TEST(ConfigTest, RequestClassRoundTrip)
{
    for (std::size_t c = 0; c < kRequestClassCount; ++c) {
        const auto cls = static_cast<RequestClass>(c);
        RequestClass parsed{};
        ASSERT_TRUE(parseRequestClass(toString(cls), &parsed));
        EXPECT_EQ(parsed, cls);
    }
    // The "demand" alias maps to the canonical DemandRead.
    RequestClass parsed{};
    EXPECT_TRUE(parseRequestClass("demand", &parsed));
    EXPECT_EQ(parsed, RequestClass::DemandRead);
    parsed = RequestClass::Writeback;
    EXPECT_FALSE(parseRequestClass("speculative-store", &parsed));
    EXPECT_EQ(parsed, RequestClass::Writeback);
}

/**
 * The enumerator values are a journal and stat-index contract (request
 * pools, telemetry events, per-class counter arrays): append-only,
 * never renumbered.
 */
TEST(ConfigTest, RequestClassValuesAreStable)
{
    EXPECT_EQ(static_cast<std::size_t>(RequestClass::DemandRead), 0u);
    EXPECT_EQ(static_cast<std::size_t>(RequestClass::Prefetch), 1u);
    EXPECT_EQ(static_cast<std::size_t>(RequestClass::Writeback), 2u);
    EXPECT_EQ(static_cast<std::size_t>(RequestClass::PtwRead), 3u);
    EXPECT_EQ(static_cast<std::size_t>(RequestClass::DramCacheFill), 4u);
    EXPECT_EQ(kRequestClassCount, 5u);
}

TEST(ConfigTest, RowPolicyNames)
{
    EXPECT_EQ(toString(RowPolicy::Open), "open-row");
    EXPECT_EQ(toString(RowPolicy::Closed), "closed-row");
}

TEST(ConfigTest, RowPolicyRoundTrip)
{
    for (RowPolicy policy : {RowPolicy::Open, RowPolicy::Closed}) {
        RowPolicy parsed{};
        ASSERT_TRUE(parseRowPolicy(toString(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    RowPolicy parsed = RowPolicy::Closed;
    EXPECT_FALSE(parseRowPolicy("ajar-row", &parsed));
    EXPECT_EQ(parsed, RowPolicy::Closed);
}

// The name tables are the single source of truth for both directions:
// every enumerator must render to a parseable canonical name, and no
// enumerator may render as "unknown".
TEST(ConfigTest, EveryEnumValueRoundTrips)
{
    for (SchedPolicyKind kind :
         {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
          SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
        ASSERT_NE(toString(kind), "unknown");
        SchedPolicyKind parsed{};
        ASSERT_TRUE(parseSchedPolicy(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Stream,
          PrefetcherKind::Stride, PrefetcherKind::Cdc,
          PrefetcherKind::Markov}) {
        ASSERT_NE(toString(kind), "unknown");
        PrefetcherKind parsed{};
        ASSERT_TRUE(parsePrefetcher(toString(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    for (RowPolicy policy : {RowPolicy::Open, RowPolicy::Closed}) {
        ASSERT_NE(toString(policy), "unknown");
        RowPolicy parsed{};
        ASSERT_TRUE(parseRowPolicy(toString(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    for (std::size_t c = 0; c < kRequestClassCount; ++c) {
        const auto cls = static_cast<RequestClass>(c);
        ASSERT_NE(toString(cls), "unknown");
        RequestClass parsed{};
        ASSERT_TRUE(parseRequestClass(toString(cls), &parsed));
        EXPECT_EQ(parsed, cls);
    }
}

TEST(TypesTest, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineAlign(0x1240), 0x1240u);
    EXPECT_EQ(lineIndex(0x1240), 0x49u);
    EXPECT_EQ(lineToAddr(0x49), 0x1240u);
    EXPECT_EQ(lineToAddr(lineIndex(0xABCDE0)), lineAlign(0xABCDE0));
}

} // namespace
} // namespace padc
