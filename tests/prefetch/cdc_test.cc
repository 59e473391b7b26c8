/**
 * @file
 * Unit tests for the CZone / Delta Correlation (C/DC) prefetcher.
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/cdc_prefetcher.hh"

namespace padc::prefetch
{
namespace
{

PrefetcherConfig
config(std::uint32_t degree = 4)
{
    PrefetcherConfig cfg;
    cfg.kind = PrefetcherKind::Cdc;
    cfg.degree = degree;
    cfg.czone_shift = 16; // 64KB zones
    cfg.czone_entries = 8;
    cfg.delta_history = 16;
    return cfg;
}

std::vector<Addr>
miss(Prefetcher &pf, Addr addr, bool train_only = false)
{
    std::vector<Addr> out;
    pf.observe(addr, 0x400, true, train_only, out);
    return out;
}

TEST(CdcTest, HitsAreIgnored)
{
    CdcPrefetcher pf(config());
    std::vector<Addr> out;
    for (int i = 0; i < 20; ++i)
        pf.observe(lineToAddr(100 + i), 0x400, /*miss=*/false, false, out);
    EXPECT_TRUE(out.empty());
}

TEST(CdcTest, RepeatingDeltaPairPredicted)
{
    CdcPrefetcher pf(config(2));
    // Delta pattern +1, +2 repeating within one zone.
    Addr line = 16; // zone 0
    miss(pf, lineToAddr(line));
    line += 1;
    miss(pf, lineToAddr(line)); // delta 1
    line += 2;
    miss(pf, lineToAddr(line)); // delta 2
    line += 1;
    miss(pf, lineToAddr(line)); // delta 1
    line += 2;
    const auto out = miss(pf, lineToAddr(line)); // delta 2: pair (1,2)
                                                 // seen before
    ASSERT_FALSE(out.empty());
    // After the earlier (1,2) occurrence came deltas 1 then 2.
    EXPECT_EQ(out[0], lineToAddr(line + 1));
    if (out.size() > 1) {
        EXPECT_EQ(out[1], lineToAddr(line + 1 + 2));
    }
}

TEST(CdcTest, ConstantStrideIsCorrelated)
{
    CdcPrefetcher pf(config(3));
    std::vector<Addr> out;
    Addr line = 100;
    for (int i = 0; i < 6; ++i) {
        out = miss(pf, lineToAddr(line));
        line += 4;
    }
    ASSERT_EQ(out.size(), 3u);
    // line was advanced after the last miss: last missed line is line-4.
    EXPECT_EQ(out[0], lineToAddr(line - 4 + 4));
    EXPECT_EQ(out[1], lineToAddr(line - 4 + 8));
    EXPECT_EQ(out[2], lineToAddr(line - 4 + 12));
}

TEST(CdcTest, ZonesAreIndependent)
{
    CdcPrefetcher pf(config(2));
    const Addr zone_a = 0;
    const Addr zone_b = 1ULL << 20; // different 64KB zone
    // Interleave: stride 2 in zone A, stride 5 in zone B.
    std::vector<Addr> out_a;
    std::vector<Addr> out_b;
    for (int i = 0; i < 6; ++i) {
        out_a = miss(pf, zone_a + static_cast<Addr>(i) * 2 * kLineBytes);
        out_b = miss(pf, zone_b + static_cast<Addr>(i) * 5 * kLineBytes);
    }
    ASSERT_FALSE(out_a.empty());
    ASSERT_FALSE(out_b.empty());
    EXPECT_EQ(lineIndex(out_a[0]), lineIndex(zone_a) + 6 * 2);
    EXPECT_EQ(out_b[0] - zone_b, static_cast<Addr>(6) * 5 * kLineBytes);
}

TEST(CdcTest, NoPredictionWithoutCorrelation)
{
    CdcPrefetcher pf(config());
    // Strictly novel deltas: 1, 2, 3, 4, ... never repeat a pair.
    Addr line = 0;
    std::vector<Addr> out;
    for (int i = 1; i < 12; ++i) {
        line += static_cast<Addr>(i);
        out = miss(pf, lineToAddr(line));
        EXPECT_TRUE(out.empty()) << "spurious prediction at step " << i;
    }
}

TEST(CdcTest, TrainOnlyDoesNotAllocateZones)
{
    CdcPrefetcher pf(config(2));
    // Zone never seen: train_only misses must not create it.
    std::vector<Addr> out;
    for (int i = 0; i < 6; ++i)
        out = miss(pf, lineToAddr(100 + i * 4), /*train_only=*/true);
    EXPECT_TRUE(out.empty());
    // Normal training afterwards starts from scratch (needs ramp).
    out = miss(pf, lineToAddr(200));
    EXPECT_TRUE(out.empty());
}

TEST(CdcTest, ZoneEvictionByLru)
{
    PrefetcherConfig cfg = config(2);
    cfg.czone_entries = 2;
    CdcPrefetcher pf(cfg);
    // Train zones 0 and 1, then touch zone 2 -> evicts zone 0 (LRU
    // after zone 1 was refreshed). Re-accessing zone 0 must retrain.
    for (int i = 0; i < 6; ++i)
        miss(pf, lineToAddr(i * 2));
    for (int i = 0; i < 6; ++i)
        miss(pf, (1ULL << 20) + lineToAddr(i * 2));
    miss(pf, (1ULL << 21));
    // Zone 0 was evicted: a single new miss predicts nothing.
    const auto out = miss(pf, lineToAddr(100));
    EXPECT_TRUE(out.empty());
}

} // namespace
} // namespace padc::prefetch
