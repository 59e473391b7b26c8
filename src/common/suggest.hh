/**
 * @file
 * "Did you mean" machinery shared by every name registry (experiment
 * selectors, workload profiles): Levenshtein edit distance plus a
 * closest-candidate picker.
 */

#ifndef PADC_COMMON_SUGGEST_HH
#define PADC_COMMON_SUGGEST_HH

#include <cstddef>
#include <string>
#include <vector>

namespace padc
{

/** Levenshtein edit distance (unit insert/delete/substitute costs). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to @p input by edit distance (first wins ties);
 * empty when @p candidates is empty.
 */
std::string closestMatch(const std::string &input,
                         const std::vector<std::string> &candidates);

/**
 * Format " (did you mean 'X'?)" for the closest candidate, or "" when
 * there are no candidates. Appended to unknown-name diagnostics.
 */
std::string didYouMean(const std::string &input,
                       const std::vector<std::string> &candidates);

} // namespace padc

#endif // PADC_COMMON_SUGGEST_HH
