/**
 * @file
 * Unit tests for policy/prefetcher name conversions.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace padc
{
namespace
{

/**
 * No two of @p values share a canonical name, so a name in a BENCH
 * label or a stat identifies its enumerator.
 */
template <typename E>
void
expectDistinctNames(const std::vector<E> &values)
{
    std::set<std::string> names;
    for (const E value : values)
        EXPECT_TRUE(names.insert(toString(value)).second) << toString(value);
}

const std::vector<SchedPolicyKind> kSchedPolicies = {
    SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
    SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps};
const std::vector<PrefetcherKind> kPrefetchers = {
    PrefetcherKind::None, PrefetcherKind::Stream, PrefetcherKind::Stride,
    PrefetcherKind::Cdc, PrefetcherKind::Markov};
const std::vector<RowPolicy> kRowPolicies = {RowPolicy::Open,
                                             RowPolicy::Closed};

std::vector<RequestClass>
requestClasses()
{
    std::vector<RequestClass> classes;
    for (std::size_t c = 0; c < kRequestClassCount; ++c)
        classes.push_back(static_cast<RequestClass>(c));
    return classes;
}

TEST(ConfigTest, SchedPolicyNames)
{
    EXPECT_EQ(toString(SchedPolicyKind::FrFcfs), "demand-pref-equal");
    EXPECT_EQ(toString(SchedPolicyKind::DemandFirst), "demand-first");
    EXPECT_EQ(toString(SchedPolicyKind::PrefetchFirst), "prefetch-first");
    EXPECT_EQ(toString(SchedPolicyKind::Aps), "aps");
}

TEST(ConfigTest, ParseSchedPolicyRoundTrip)
{
    expectDistinctNames(kSchedPolicies);
}

TEST(ConfigTest, PrefetcherNamesRoundTrip)
{
    expectDistinctNames(kPrefetchers);
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
    expectDistinctNames(requestClasses());
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
    expectDistinctNames(kRowPolicies);
}

// The name tables cover every enumerator: none renders as "unknown".
TEST(ConfigTest, EveryEnumValueRoundTrips)
{
    for (const SchedPolicyKind kind : kSchedPolicies)
        EXPECT_NE(toString(kind), "unknown");
    for (const PrefetcherKind kind : kPrefetchers)
        EXPECT_NE(toString(kind), "unknown");
    for (const RowPolicy policy : kRowPolicies)
        EXPECT_NE(toString(policy), "unknown");
    for (const RequestClass cls : requestClasses())
        EXPECT_NE(toString(cls), "unknown");
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
