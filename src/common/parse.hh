/**
 * @file
 * The one strict unsigned decimal parser: flags, environment
 * overrides and journal integers all use it.
 */

#ifndef PADC_COMMON_PARSE_HH
#define PADC_COMMON_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace padc
{

/**
 * Parse all of @p text, digits only (no sign or blank), into @p out;
 * false, leaving @p out alone, when it is not that or overflows.
 */
inline bool
parseU64(const char *text, std::uint64_t *out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = value;
    return true;
}

} // namespace padc

#endif // PADC_COMMON_PARSE_HH
