#include "common/random.hh"

namespace padc
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Lemire's multiply-shift; tiny modulo bias is irrelevant for
    // workload synthesis and keeps the generator branch-free.
    unsigned __int128 product =
        static_cast<unsigned __int128>(next()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint32_t
Rng::burstLength(double p, std::uint32_t cap)
{
    std::uint32_t len = 1;
    while (len < cap && chance(p))
        ++len;
    return len;
}

} // namespace padc
