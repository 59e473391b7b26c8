/**
 * @file
 * The one 64-bit FNV-1a: result config hashes, custom-point keys,
 * golden digests and sweep-point keys all use it.
 */

#ifndef PADC_COMMON_FNV_HH
#define PADC_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace padc
{

/**
 * 64-bit FNV-1a of @p size bytes at @p data, continuing from @p seed
 * (pass the previous result to chain). The default seed,
 * 1469598103934665603, is not FNV's offset basis (0xcbf29ce484222325,
 * one decimal digit longer): `config_hash`, custom-point keys and the
 * golden digests were written with it, so it stays. sweepPointKey
 * passes the canonical basis.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t seed = 1469598103934665603ULL)
{
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= kPrime;
    }
    return hash;
}

} // namespace padc

#endif // PADC_COMMON_FNV_HH
