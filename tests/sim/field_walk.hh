/**
 * @file
 * Test helper: walk every leaf of a tabled struct by dotted path. The
 * leaf list comes from the field tables (common/fields.hh), never from
 * a list written out in a test, so a new table row is covered the
 * moment it exists.
 */

#ifndef PADC_TESTS_SIM_FIELD_WALK_HH
#define PADC_TESTS_SIM_FIELD_WALK_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.hh"

namespace padc::test
{

/**
 * Call @p f(path, leaf) for every leaf under @p value: each row of a
 * tabled struct, recursively ("sched.accuracy.interval"), and each
 * element of an array or vector ("sched.drop_thresholds[2]"). Leaves
 * are bools, integers, enums, doubles and strings.
 */
template <typename T, typename F>
void
forEachLeaf(T &value, const std::string &path, F &&f)
{
    if constexpr (fields::Tabled<std::remove_const_t<T>>) {
        forEachField(value, [&](const char *name, auto &member) {
            forEachLeaf(member, path.empty() ? name : path + "." + name,
                        f);
        });
    } else if constexpr (fields::kIsVector<std::remove_const_t<T>> ||
                         fields::kIsArray<std::remove_const_t<T>>) {
        for (std::size_t i = 0; i < value.size(); ++i)
            forEachLeaf(value[i], path + "[" + std::to_string(i) + "]", f);
    } else {
        f(path, value);
    }
}

/** Every leaf path of @p value, in table order. */
template <typename T>
std::vector<std::string>
leafPaths(const T &value)
{
    std::vector<std::string> paths;
    forEachLeaf(value, "",
                [&](const std::string &path, const auto &) {
                    paths.push_back(path);
                });
    return paths;
}

/**
 * Change @p leaf to a nearby value: an integer +1, a bool flipped, a
 * double to the next representable value up, an enum to its next
 * enumerator, a string extended.
 */
template <typename L>
void
nudge(L &leaf)
{
    if constexpr (std::is_same_v<L, bool>) {
        leaf = !leaf;
    } else if constexpr (std::is_same_v<L, double>) {
        leaf = std::nextafter(leaf, std::numeric_limits<double>::max());
    } else if constexpr (std::is_same_v<L, std::string>) {
        leaf += "'";
    } else if constexpr (std::is_enum_v<L>) {
        leaf = static_cast<L>(static_cast<std::underlying_type_t<L>>(leaf) +
                              1);
    } else {
        static_assert(std::is_unsigned_v<L>);
        ++leaf;
    }
}

/** nudge() the @p index-th leaf of @p value; @return its path. */
template <typename T>
std::string
nudgeLeaf(T &value, std::size_t index)
{
    std::string nudged;
    std::size_t at = 0;
    forEachLeaf(value, "", [&](const std::string &path, auto &leaf) {
        if (at++ == index) {
            nudge(leaf);
            nudged = path;
        }
    });
    return nudged;
}

/**
 * "path=value" for every leaf, doubles by their bit pattern: equal
 * dumps mean bit-identical values.
 */
template <typename T>
std::vector<std::string>
leafDump(const T &value)
{
    std::vector<std::string> dump;
    forEachLeaf(value, "", [&](const std::string &path, const auto &leaf) {
        using L = std::remove_cvref_t<decltype(leaf)>;
        std::string text;
        if constexpr (std::is_same_v<L, std::string>) {
            text = leaf;
        } else if constexpr (std::is_same_v<L, double>) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &leaf, sizeof(bits));
            text = std::to_string(bits);
        } else {
            text = std::to_string(static_cast<std::uint64_t>(leaf));
        }
        dump.push_back(path + "=" + text);
    });
    return dump;
}

} // namespace padc::test

#endif // PADC_TESTS_SIM_FIELD_WALK_HH
