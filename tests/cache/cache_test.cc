/**
 * @file
 * Unit tests for the set-associative cache: lookup, LRU replacement,
 * dirty/prefetched line lifecycle, invalidation, and configuration
 * validation.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace padc::cache
{
namespace
{

CacheConfig
smallConfig(std::uint32_t ways = 2, std::uint64_t size = 4096)
{
    CacheConfig cfg;
    cfg.size_bytes = size; // 4KB, 2-way -> 32 sets
    cfg.ways = ways;
    cfg.hit_latency = 2;
    return cfg;
}

/** Two addresses mapping to the same set of a cache. */
Addr
sameSetAddr(const CacheConfig &cfg, Addr base, std::uint32_t n)
{
    return base + static_cast<Addr>(n) * cfg.sets() * kLineBytes;
}

TEST(CacheConfigTest, Validation)
{
    EXPECT_TRUE(smallConfig().valid());
    CacheConfig bad = smallConfig();
    bad.ways = 0;
    EXPECT_FALSE(bad.valid());
    bad = smallConfig();
    bad.size_bytes = 4096 + 64; // not divisible into pow2 sets
    EXPECT_FALSE(bad.valid());
    bad = smallConfig(3, 4096 * 3); // 64 sets, 3 ways -> valid? sets pow2
    EXPECT_TRUE(bad.valid());
}

TEST(CacheTest, MissThenHit)
{
    SetAssocCache cache(smallConfig(), "t");
    EXPECT_EQ(cache.access(0x1000), nullptr);
    cache.fill(0x1000, 0, 0, false, false, 0);
    Line *line = cache.access(0x1008); // same line, different offset
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line, cache.peek(0x1000));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, ProbeDoesNotTouchStats)
{
    SetAssocCache cache(smallConfig(), "t");
    cache.fill(0x1000, 0, 0, false, false, 0);
    EXPECT_TRUE(cache.probe(0x1000));
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheTest, LruEviction)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    const Addr a = 0x0;
    const Addr b = sameSetAddr(cfg, a, 1);
    const Addr c = sameSetAddr(cfg, a, 2);
    cache.fill(a, 0, 0, false, false, 0);
    cache.fill(b, 0, 0, false, false, 0);
    ASSERT_NE(cache.access(a), nullptr); // touch a -> b becomes LRU
    const EvictResult ev = cache.fill(c, 0, 0, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, b);
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(CacheTest, FillPrefersInvalidWay)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    cache.fill(0x0, 0, 0, false, false, 0);
    const EvictResult ev =
        cache.fill(sameSetAddr(cfg, 0x0, 1), 0, 0, false, false, 0);
    EXPECT_FALSE(ev.valid); // free way existed
}

TEST(CacheTest, DirtyEvictionReported)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    cache.fill(0x0, 0, 0, false, false, 0);
    cache.access(0x0)->dirty = true;
    cache.fill(sameSetAddr(cfg, 0x0, 1), 0, 0, false, false, 0);
    const EvictResult ev =
        cache.fill(sameSetAddr(cfg, 0x0, 2), 0, 0, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(CacheTest, PrefetchedUnusedEvictionReported)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    cache.fill(0x0, 3, 0x777, true, true, 555);
    cache.fill(sameSetAddr(cfg, 0x0, 1), 0, 0, false, false, 0);
    const EvictResult ev =
        cache.fill(sameSetAddr(cfg, 0x0, 2), 0, 0, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.prefetched_unused);
    EXPECT_EQ(ev.owner, 3u);
    EXPECT_EQ(ev.pc, 0x777u);
    EXPECT_EQ(ev.service_time, 555u);
    EXPECT_EQ(cache.stats().useless_evictions, 1u);
}

TEST(CacheTest, PBitClearedByCallerStopsUselessAccounting)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    cache.fill(0x0, 0, 0, true, false, 0);
    // Simulate the system resolving the prefetch as useful.
    cache.access(0x0)->prefetched = false;
    cache.fill(sameSetAddr(cfg, 0x0, 1), 0, 0, false, false, 0);
    const EvictResult ev =
        cache.fill(sameSetAddr(cfg, 0x0, 2), 0, 0, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.prefetched_unused);
    EXPECT_EQ(cache.stats().useless_evictions, 0u);
}

TEST(CacheTest, FillRowHitAndServiceTimeStored)
{
    SetAssocCache cache(smallConfig(), "t");
    cache.fill(0x40, 1, 0x90, true, true, 321);
    const Line *line = cache.peek(0x40);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->fill_row_hit);
    EXPECT_EQ(line->service_time, 321u);
    EXPECT_EQ(line->owner, 1u);
    EXPECT_EQ(line->pc, 0x90u);
}

TEST(CacheTest, InvalidateReturnsDirtiness)
{
    SetAssocCache cache(smallConfig(), "t");
    cache.fill(0x40, 0, 0, false, false, 0);
    EXPECT_FALSE(cache.invalidate(0x40));
    EXPECT_FALSE(cache.probe(0x40));
    cache.fill(0x40, 0, 0, false, false, 0);
    cache.access(0x40)->dirty = true;
    EXPECT_TRUE(cache.invalidate(0x40));
    EXPECT_FALSE(cache.invalidate(0x40)); // already gone
}

TEST(CacheTest, PeekDoesNotUpdateRecency)
{
    const CacheConfig cfg = smallConfig();
    SetAssocCache cache(cfg, "t");
    const Addr a = 0x0;
    const Addr b = sameSetAddr(cfg, a, 1);
    cache.fill(a, 0, 0, false, false, 0);
    cache.fill(b, 0, 0, false, false, 0);
    cache.peek(a); // must NOT refresh a
    const EvictResult ev =
        cache.fill(sameSetAddr(cfg, a, 2), 0, 0, false, false, 0);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.line_addr, a); // a was still LRU
}

TEST(CacheTest, ForEachLineVisitsValidOnly)
{
    SetAssocCache cache(smallConfig(), "t");
    cache.fill(0x0, 0, 0, true, false, 0);
    cache.fill(0x40, 0, 0, false, false, 0);
    cache.invalidate(0x40);
    int count = 0;
    int prefetched = 0;
    cache.forEachLine([&](const Line &line) {
        ++count;
        prefetched += line.prefetched ? 1 : 0;
    });
    EXPECT_EQ(count, 1);
    EXPECT_EQ(prefetched, 1);
}

TEST(CacheTest, RandomReplacementIsDeterministic)
{
    CacheConfig cfg = smallConfig();
    cfg.repl = ReplPolicyKind::Random;
    SetAssocCache a(cfg, "a");
    SetAssocCache b(cfg, "b");
    for (std::uint32_t i = 0; i < 20; ++i) {
        const Addr addr = sameSetAddr(cfg, 0x0, i);
        const EvictResult ea = a.fill(addr, 0, 0, false, false, 0);
        const EvictResult eb = b.fill(addr, 0, 0, false, false, 0);
        EXPECT_EQ(ea.valid, eb.valid);
        if (ea.valid) {
            EXPECT_EQ(ea.line_addr, eb.line_addr);
        }
    }
}

/** Property: the cache never holds more lines than its capacity. */
class CacheCapacityProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint64_t>>
{
};

TEST_P(CacheCapacityProperty, OccupancyBounded)
{
    const auto [ways, size] = GetParam();
    CacheConfig cfg;
    cfg.ways = ways;
    cfg.size_bytes = size;
    cfg.hit_latency = 1;
    ASSERT_TRUE(cfg.valid());
    SetAssocCache cache(cfg, "t");
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 5000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = lineAlign(x & 0xFFFFFF);
        if (!cache.probe(addr))
            cache.fill(addr, 0, 0, false, false, 0);
    }
    std::uint64_t valid = 0;
    cache.forEachLine([&](const Line &) { ++valid; });
    EXPECT_LE(valid, size / kLineBytes);
    EXPECT_EQ(cache.stats().fills,
              cache.stats().evictions + valid);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheCapacityProperty,
    ::testing::Values(std::make_tuple(1u, 2048ULL),
                      std::make_tuple(2u, 4096ULL),
                      std::make_tuple(8u, 32768ULL),
                      std::make_tuple(16u, 65536ULL)));

} // namespace
} // namespace padc::cache
