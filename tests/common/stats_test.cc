/**
 * @file
 * Unit tests for StatSet and the small math helpers. Histogram
 * tests moved to histogram_test.cc with the class promotion to
 * common/histogram.hh.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace padc
{
namespace
{

TEST(StatSetTest, AddAndGet)
{
    StatSet s;
    s.add("alpha", 1.5);
    s.add("beta", -2.0);
    EXPECT_TRUE(s.has("alpha"));
    EXPECT_DOUBLE_EQ(s.get("alpha"), 1.5);
    EXPECT_DOUBLE_EQ(s.get("beta"), -2.0);
}

TEST(StatSetTest, MissingReadsAsZero)
{
    StatSet s;
    EXPECT_FALSE(s.has("nope"));
    EXPECT_DOUBLE_EQ(s.get("nope"), 0.0);
}

// A duplicate name reads as its first occurrence.
TEST(StatSetTest, DuplicateNameReadsFirstOccurrence)
{
    StatSet s;
    s.add("dup", 1.0);
    s.add("other", 5.0);
    s.add("dup", 2.0);
    EXPECT_TRUE(s.has("dup"));
    EXPECT_DOUBLE_EQ(s.get("dup"), 1.0);
    ASSERT_EQ(s.entries().size(), 3u);
    EXPECT_DOUBLE_EQ(s.entries()[2].second, 2.0); // both kept in order
}

// Appends after a lookup must be visible to later lookups.
TEST(StatSetTest, IndexCatchesUpAfterInterleavedAdds)
{
    StatSet s;
    s.add("a", 1.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 1.0);
    EXPECT_FALSE(s.has("b"));
    s.add("b", 2.0);
    s.add("a", 9.0); // duplicate appended after a lookup
    EXPECT_TRUE(s.has("b"));
    EXPECT_DOUBLE_EQ(s.get("b"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 1.0); // still the first occurrence
}

TEST(StatSetTest, InsertionOrderPreserved)
{
    StatSet s;
    s.add("z", 1);
    s.add("a", 2);
    s.add("m", 3);
    ASSERT_EQ(s.entries().size(), 3u);
    EXPECT_EQ(s.entries()[0].first, "z");
    EXPECT_EQ(s.entries()[1].first, "a");
    EXPECT_EQ(s.entries()[2].first, "m");
}

TEST(MathTest, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(MathTest, Amean)
{
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
}

TEST(MathTest, RatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(6.0, 3.0), 2.0);
}

} // namespace
} // namespace padc
