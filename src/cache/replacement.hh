/**
 * @file
 * Victim-selection policies for the set-associative cache.
 *
 * LRU is the baseline (and what the paper's processor model uses); a
 * deterministic pseudo-random policy is provided for sensitivity tests.
 */

#ifndef PADC_CACHE_REPLACEMENT_HH
#define PADC_CACHE_REPLACEMENT_HH

#include <cstdint>

#include "common/types.hh"

namespace padc::cache
{

/** Replacement policy selector. */
enum class ReplPolicyKind : std::uint8_t
{
    Lru,
    Random,
};

/**
 * Chooses a victim way within a set. Invalid ways are always preferred
 * and handled by the cache itself before consulting the policy.
 */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(ReplPolicyKind kind,
                               std::uint64_t seed = 0x5EEDULL)
        : kind_(kind), rand_state_(seed | 1)
    {
    }

    /**
     * Pick the victim among @p ways valid lines.
     * @param stamp_of way -> recency stamp (larger = newer)
     * @return way index of the victim
     */
    template <typename StampOf>
    std::uint32_t
    victim(std::uint32_t ways, StampOf &&stamp_of)
    {
        if (kind_ == ReplPolicyKind::Random)
            return static_cast<std::uint32_t>(nextRandom() % ways);
        std::uint32_t victim_way = 0;
        for (std::uint32_t way = 1; way < ways; ++way) {
            if (stamp_of(way) < stamp_of(victim_way))
                victim_way = way;
        }
        return victim_way;
    }

    ReplPolicyKind kind() const { return kind_; }

  private:
    /** xorshift64: deterministic, cheap, good enough for victim choice. */
    std::uint64_t nextRandom()
    {
        rand_state_ ^= rand_state_ << 13;
        rand_state_ ^= rand_state_ >> 7;
        rand_state_ ^= rand_state_ << 17;
        return rand_state_;
    }

    ReplPolicyKind kind_;
    std::uint64_t rand_state_;
};

} // namespace padc::cache

#endif // PADC_CACHE_REPLACEMENT_HH
