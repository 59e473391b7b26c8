/**
 * @file
 * Unit tests for the shared fixed-bucket Histogram
 * (common/histogram.hh). The nearest-rank percentile and
 * overflow-to-tracked-max semantics pinned down here are load-bearing
 * for the Fig. 4(a) distributions.
 */

#include <gtest/gtest.h>

#include "common/histogram.hh"

namespace padc
{
namespace
{

TEST(HistogramTest, BucketPlacement)
{
    Histogram h(100, 4); // [0,100) [100,200) [200,300) [300,400) + overflow
    h.sample(0);
    h.sample(99);
    h.sample(100);
    h.sample(399);
    h.sample(400); // overflow
    h.sample(100000);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.count(4), 2u); // overflow bucket
    EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramTest, MeanAndReset)
{
    Histogram h(10, 2);
    h.sample(10);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.count(0), 0u);
}

TEST(HistogramTest, OutOfRangeBucketQueryIsZero)
{
    Histogram h(10, 2);
    h.sample(5);
    EXPECT_EQ(h.count(99), 0u);
}

TEST(HistogramTest, PercentileEmptyIsZero)
{
    Histogram h(10, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
    EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentileExactBucketBoundaries)
{
    // 10 samples, one per bucket of width 10: nearest-rank percentiles
    // land exactly on bucket upper edges.
    Histogram h(10, 10);
    for (std::uint64_t i = 0; i < 10; ++i)
        h.sample(i * 10 + 5); // one sample in bucket i
    // p10 -> rank 1 -> first bucket's upper edge.
    EXPECT_DOUBLE_EQ(h.percentile(10.0), 10.0);
    // p50 -> rank 5 -> fifth bucket's upper edge.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
    // p51 -> rank 6 -> sixth bucket.
    EXPECT_DOUBLE_EQ(h.percentile(51.0), 60.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
    // p0 clamps to rank 1, and out-of-range p clamps to [0, 100].
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(200.0), 100.0);
}

TEST(HistogramTest, PercentileOverflowBucketReturnsMax)
{
    Histogram h(10, 2); // [0,10) [10,20) + overflow
    h.sample(5);
    h.sample(15);
    h.sample(1000);
    h.sample(5000); // overflow holds ranks 3..4
    EXPECT_EQ(h.max(), 5000u);
    EXPECT_DOUBLE_EQ(h.percentile(25.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 20.0);
    // Ranks inside the overflow bucket report the tracked maximum.
    EXPECT_DOUBLE_EQ(h.percentile(75.0), 5000.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 5000.0);
    h.reset();
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
}

} // namespace
} // namespace padc
