/**
 * @file
 * Unit tests for the Adaptive Prefetch Dropping unit (paper Section 4.3
 * and Table 6).
 */

#include <gtest/gtest.h>

#include "memctrl/dropping.hh"

namespace padc::memctrl
{
namespace
{

class DroppingTest : public ::testing::Test
{
  protected:
    DroppingTest() : tracker_(1, trackerConfig()) {}

    static AccuracyConfig
    trackerConfig()
    {
        AccuracyConfig c;
        c.interval = 100;
        c.min_samples = 1;
        return c;
    }

    void
    setAccuracy(double accuracy)
    {
        for (int i = 0; i < 100; ++i)
            tracker_.onPrefetchSent(0);
        for (int i = 0; i < static_cast<int>(accuracy * 100 + 0.5); ++i)
            tracker_.onPrefetchUsed(0);
        tracker_.tick(boundary_);
        boundary_ += 100;
    }

    Request
    prefetchAged(Cycle age)
    {
        Request r;
        r.core = 0;
        r.cls = RequestClass::Prefetch;
        r.was_prefetch = true;
        r.arrival = 0;
        now_ = age;
        return r;
    }

    SchedulerConfig config_;
    AccuracyTracker tracker_;
    Cycle boundary_ = 100;
    Cycle now_ = 0;
};

TEST_F(DroppingTest, ThresholdTableBands)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.05);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[0]); // 100
    setAccuracy(0.20);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[1]); // 1500
    setAccuracy(0.50);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[2]); // 50000
    setAccuracy(0.90);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[3]); // 100000
}

TEST_F(DroppingTest, BandBoundariesAreHalfOpen)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.10); // exactly at the first bound -> second band
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[1]);
    setAccuracy(0.30);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[2]);
    setAccuracy(0.70);
    EXPECT_EQ(apd.dropThreshold(0), config_.drop_thresholds[3]);
}

TEST_F(DroppingTest, DropsOldPrefetchAtLowAccuracy)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0); // threshold 100 cycles
    Request r = prefetchAged(201);
    EXPECT_TRUE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, KeepsYoungPrefetch)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0);
    Request r = prefetchAged(99);
    EXPECT_FALSE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, AgeIsQuantized)
{
    // With age_quantum 100 and threshold 100, an age of 150 quantizes to
    // 100, which is NOT > 100 -- matching the coarse hardware AGE field.
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0);
    Request r = prefetchAged(150);
    EXPECT_FALSE(apd.shouldDrop(r, now_));
    r = prefetchAged(200);
    EXPECT_TRUE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, NeverDropsDemands)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0);
    Request r = prefetchAged(100000);
    r.cls = RequestClass::DemandRead; // promoted or plain demand
    EXPECT_FALSE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, NeverDropsWrites)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0);
    Request r = prefetchAged(100000);
    r.cls = RequestClass::Writeback;
    EXPECT_FALSE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, NeverDropsInFlightRequests)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.0);
    Request r = prefetchAged(100000);
    r.state = RequestState::Servicing;
    EXPECT_FALSE(apd.shouldDrop(r, now_));
}

TEST_F(DroppingTest, HighAccuracyKeepsOldPrefetches)
{
    ApdUnit apd(config_, tracker_);
    setAccuracy(0.95); // threshold 100000
    Request r = prefetchAged(50000);
    EXPECT_FALSE(apd.shouldDrop(r, now_));
    r = prefetchAged(100200);
    EXPECT_TRUE(apd.shouldDrop(r, now_));
}

/** Property: dropping decision is monotonic in age. */
class DropMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(DropMonotonicity, OlderNeverLessDroppable)
{
    SchedulerConfig config;
    AccuracyConfig ac;
    ac.interval = 100;
    ac.min_samples = 1;
    config.accuracy = ac;
    AccuracyTracker tracker(1, ac);
    for (int i = 0; i < 100; ++i)
        tracker.onPrefetchSent(0);
    for (int i = 0; i < static_cast<int>(GetParam() * 100); ++i)
        tracker.onPrefetchUsed(0);
    tracker.tick(100);

    ApdUnit apd(config, tracker);
    bool dropped_before = false;
    for (Cycle age = 0; age <= 200000; age += 500) {
        Request r;
        r.core = 0;
        r.cls = RequestClass::Prefetch;
        r.arrival = 0;
        const bool drop = apd.shouldDrop(r, age);
        if (dropped_before) {
            ASSERT_TRUE(drop) << "non-monotonic at age " << age;
        }
        dropped_before = drop;
    }
    EXPECT_TRUE(dropped_before); // every band drops by 200K cycles
}

INSTANTIATE_TEST_SUITE_P(AccuracyLevels, DropMonotonicity,
                         ::testing::Values(0.0, 0.15, 0.5, 0.95));

} // namespace
} // namespace padc::memctrl
