/**
 * @file
 * Field tables: the one list of a struct's members that every generic
 * walk over the struct derives from (the sweep-point key, the
 * journal's JSON record codec, and the tests that mutate every leaf).
 *
 * A table is a forEachField(s, v) function template written next to
 * the struct, in the struct's namespace (callers find it by ADL). It
 * calls v("name", s.member) once per member, in declaration order:
 *
 *   template <fields::Of<Foo> S, typename V>
 *   constexpr void
 *   forEachField(S &s, V &&v)
 *   {
 *       v("a", s.a);
 *       v("b", s.b);
 *   }
 *   static_assert(fields::complete<Foo>());
 *
 * S is Foo or const Foo, so one body serves readers and writers. The
 * static_assert compares the row count with the aggregate's member
 * count, so adding a member without a row, or deleting a row, breaks
 * the build. A member deliberately left out of a table is counted in
 * complete()'s argument, with a comment at the table saying why.
 */

#ifndef PADC_COMMON_FIELDS_HH
#define PADC_COMMON_FIELDS_HH

#include <array>
#include <concepts>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace padc::fields
{

/** S is T or const T. */
template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

/** Walks recurse into these rows element by element. */
template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;
template <typename T>
constexpr bool kIsArray = false;
template <typename T, std::size_t N>
constexpr bool kIsArray<std::array<T, N>> = true;

/** T has a field table (a forEachField overload found by ADL). */
template <typename T>
concept Tabled = requires(T &s) {
    forEachField(s, [](const char *, const auto &) {});
};

namespace detail
{

/** Converts to any member type: probes aggregate initialization. */
struct Any
{
    template <typename T>
    operator T() const;
};

/** Data members of aggregate T: the longest brace list T accepts. */
template <typename T, typename... Probe>
constexpr std::size_t
arity()
{
    if constexpr (requires { T{Probe{}..., Any{}}; })
        return arity<T, Probe..., Any>();
    else
        return sizeof...(Probe);
}

} // namespace detail

/** T's table lists every data member of T but @p unlisted ones. */
template <typename T>
constexpr bool
complete(std::size_t unlisted = 0)
{
    T s{};
    std::size_t rows = 0;
    forEachField(s, [&rows](const char *, const auto &) { ++rows; });
    return rows + unlisted == detail::arity<T>();
}

} // namespace padc::fields

#endif // PADC_COMMON_FIELDS_HH
