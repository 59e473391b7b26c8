/**
 * @file
 * Unit tests for the shared 64-bit FNV-1a (common/fnv.hh).
 */

#include "common/fnv.hh"

#include <gtest/gtest.h>

namespace padc
{
namespace
{

TEST(FnvTest, ChainingMatchesOneShot)
{
    const char data[] = "prefetch-aware dram controllers";
    const std::size_t size = sizeof(data) - 1;
    const std::uint64_t whole = fnv1a(data, size);
    for (std::size_t split = 0; split <= size; ++split) {
        const std::uint64_t first = fnv1a(data, split);
        EXPECT_EQ(fnv1a(data + split, size - split, first), whole)
            << "split " << split;
    }
    // Order and content sensitivity.
    EXPECT_NE(fnv1a("ab", 2), fnv1a("ba", 2));
    EXPECT_NE(fnv1a("a", 1), fnv1a("b", 1));
}

} // namespace
} // namespace padc
