/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic behaviour in the library (synthetic trace generation,
 * workload mix selection) flows through Xoshiro256StarStar so that every
 * experiment is exactly reproducible from its seed. We deliberately avoid
 * std::mt19937 / std::uniform_int_distribution because their outputs are
 * not guaranteed identical across standard-library implementations.
 */

#ifndef PADC_COMMON_RANDOM_HH
#define PADC_COMMON_RANDOM_HH

#include <cstdint>

namespace padc
{

/**
 * xoshiro256** PRNG (Blackman & Vigna), seeded via splitmix64.
 *
 * Fast, high-quality, and fully deterministic across platforms.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any seed (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using rejection-free multiply-shift. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool chance(double p);

    /**
     * Geometric-ish burst length: 1 + number of successes before the first
     * failure with continuation probability p, capped at cap.
     */
    std::uint32_t burstLength(double p, std::uint32_t cap);

  private:
    std::uint64_t state_[4];
};

} // namespace padc

#endif // PADC_COMMON_RANDOM_HH
