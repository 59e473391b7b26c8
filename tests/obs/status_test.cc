/**
 * @file
 * Live-progress unit tests: the deterministic rolling-window rate/ETA
 * estimator (driven with explicit now_ms values — no real clock) and
 * the progress-line renderer.
 */

#include "obs/status.hh"

#include <gtest/gtest.h>

#include <string>

namespace padc
{
namespace
{

TEST(RateEstimatorTest, NoRateUntilTwoSamples)
{
    obs::RateEstimator rate;
    EXPECT_DOUBLE_EQ(rate.ratePerSec(1000), 0.0);
    rate.notePoint(1000);
    EXPECT_DOUBLE_EQ(rate.ratePerSec(1500), 0.0);
    EXPECT_LT(rate.etaSeconds(1500, 10), 0.0);
    rate.notePoint(2000);
    EXPECT_GT(rate.ratePerSec(2000), 0.0);
}

TEST(RateEstimatorTest, SteadyRateAndEta)
{
    obs::RateEstimator rate;
    // One completion per second from t=1s to t=8s.
    for (std::uint64_t t = 1000; t <= 8000; t += 1000)
        rate.notePoint(t);
    EXPECT_EQ(rate.noted(), 8u);
    EXPECT_NEAR(rate.ratePerSec(8000), 8.0 / 7.0, 0.02);
    // 14 remaining points at ~8/7 per second.
    EXPECT_NEAR(rate.etaSeconds(8000, 14), 14.0 * 7.0 / 8.0, 0.3);
    EXPECT_DOUBLE_EQ(rate.etaSeconds(8000, 0), 0.0);
}

TEST(RateEstimatorTest, WindowTracksRecentSpeed)
{
    obs::RateEstimator rate(4);
    // Slow phase: one point per 10 seconds.
    for (std::uint64_t t = 10000; t <= 50000; t += 10000)
        rate.notePoint(t);
    // Fast phase: one point per 100 ms; the window only remembers these.
    for (std::uint64_t t = 50100; t <= 50400; t += 100)
        rate.notePoint(t);
    const double fast = rate.ratePerSec(50400);
    EXPECT_GT(fast, 5.0); // nowhere near the 0.1/s slow phase
}

TEST(RateEstimatorTest, RateDecaysWhileStalled)
{
    obs::RateEstimator rate;
    rate.notePoint(1000);
    rate.notePoint(2000);
    const double at_completion = rate.ratePerSec(2000);
    const double stalled = rate.ratePerSec(60000);
    EXPECT_LT(stalled, at_completion / 10.0);
}

TEST(RateEstimatorTest, ReplayedPointsDoNotInflateRate)
{
    // The resume contract: journal-replayed points are never noted, so
    // an estimator fed only the genuinely executed completions reports
    // the execution rate -- not the (instant) replay rate. This models
    // a resumed sweep replaying 100 points in 10ms and then executing
    // 4 points at 1/s: the monitor notes only the 4.
    obs::RateEstimator rate;
    for (std::uint64_t t = 1000; t <= 4000; t += 1000)
        rate.notePoint(t);
    EXPECT_EQ(rate.noted(), 4u);
    EXPECT_NEAR(rate.ratePerSec(4000), 4.0 / 3.0, 0.05);
    // Had the 100 replays been noted across 10ms, the window rate
    // would be in the thousands per second; assert we are orders of
    // magnitude below that.
    EXPECT_LT(rate.ratePerSec(4000), 10.0);
}

obs::SweepStatus
sampleStatus()
{
    obs::SweepStatus status;
    status.experiment = "smoke_grid";
    status.total = 9;
    status.done = 5;
    status.replayed = 2;
    status.rate_per_sec = 1.75;
    status.eta_seconds = 2.3;
    return status;
}

TEST(SweepStatusTest, ProgressLineCarriesTheHeadlineNumbers)
{
    const std::string line = obs::renderProgressLine(sampleStatus());
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("smoke_grid"), std::string::npos);
    EXPECT_NE(line.find("5/9"), std::string::npos);
    EXPECT_NE(line.find("2 replayed"), std::string::npos);
    EXPECT_NE(line.find("1.75"), std::string::npos);
}

TEST(SweepStatusTest, ProgressLineShowsUnknownEta)
{
    obs::SweepStatus status = sampleStatus();
    status.eta_seconds = -1.0;
    const std::string line = obs::renderProgressLine(status);
    EXPECT_NE(line.find("ETA --"), std::string::npos);
}

} // namespace
} // namespace padc
