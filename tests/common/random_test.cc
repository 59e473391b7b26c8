/**
 * @file
 * Unit and property tests for the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.hh"

namespace padc
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(RngTest, ZeroSeedIsValid)
{
    Rng rng(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 64; ++i)
        seen.insert(rng.next());
    // A broken all-zero state would return the same value forever.
    EXPECT_GT(seen.size(), 60u);
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(RngTest, NextBelowZeroBoundReturnsZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBelow(0), 0u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextRangeSingleton)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.nextRange(5, 5), 5);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    // Mean of uniform(0,1) should be near 0.5.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
        EXPECT_FALSE(rng.chance(-1.0));
        EXPECT_TRUE(rng.chance(2.0));
    }
}

TEST(RngTest, ChanceFrequencyMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(RngTest, BurstLengthBounds)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t len = rng.burstLength(0.5, 8);
        EXPECT_GE(len, 1u);
        EXPECT_LE(len, 8u);
    }
}

TEST(RngTest, BurstLengthMeanApproxGeometric)
{
    Rng rng(23);
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += rng.burstLength(0.5, 1000);
    // Mean of 1 + Geom(p=0.5 continuation) = 2.
    EXPECT_NEAR(sum / trials, 2.0, 0.1);
}

TEST(RngTest, BurstLengthZeroProbabilityIsOne)
{
    Rng rng(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.burstLength(0.0, 100), 1u);
}

/** Property sweep: nextBelow stays in range for many bounds and seeds. */
class RngBoundProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint64_t>>
{
};

TEST_P(RngBoundProperty, AlwaysBelowBound)
{
    const auto [seed, bound] = GetParam();
    Rng rng(seed);
    for (int i = 0; i < 500; ++i)
        ASSERT_LT(rng.nextBelow(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RngBoundProperty,
    ::testing::Combine(::testing::Values(0ULL, 1ULL, 0xDEADBEEFULL),
                       ::testing::Values(1ULL, 3ULL, 64ULL, 4097ULL,
                                         1ULL << 33)));

} // namespace
} // namespace padc
