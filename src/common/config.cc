#include "common/config.hh"

#include <cstddef>
#include <utility>

namespace padc
{

void
ConfigErrors::add(std::string field, std::string message)
{
    errors_.push_back({std::move(field), std::move(message)});
}

std::string
ConfigErrors::str() const
{
    std::string out;
    for (const ConfigError &error : errors_) {
        if (!out.empty())
            out += "; ";
        out += error.field;
        out += ": ";
        out += error.message;
    }
    return out;
}

namespace
{

/** One row of an enum name table: a value and its toString name. */
template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

template <typename E, std::size_t N>
std::string
nameOf(const EnumName<E> (&table)[N], E value)
{
    for (const auto &entry : table) {
        if (entry.value == value)
            return entry.name;
    }
    return "unknown";
}

/** Scheduling policies; canonical names match the paper's figures. */
constexpr EnumName<SchedPolicyKind> kSchedPolicyNames[] = {
    {SchedPolicyKind::FrFcfs, "demand-pref-equal"},
    {SchedPolicyKind::DemandFirst, "demand-first"},
    {SchedPolicyKind::PrefetchFirst, "prefetch-first"},
    {SchedPolicyKind::Aps, "aps"},
};

constexpr EnumName<PrefetcherKind> kPrefetcherNames[] = {
    {PrefetcherKind::None, "none"},     {PrefetcherKind::Stream, "stream"},
    {PrefetcherKind::Stride, "stride"}, {PrefetcherKind::Cdc, "cdc"},
    {PrefetcherKind::Markov, "markov"},
};

constexpr EnumName<RowPolicy> kRowPolicyNames[] = {
    {RowPolicy::Open, "open-row"},
    {RowPolicy::Closed, "closed-row"},
};

constexpr EnumName<RequestClass> kRequestClassNames[] = {
    {RequestClass::DemandRead, "demand-read"},
    {RequestClass::Prefetch, "prefetch"},
    {RequestClass::Writeback, "writeback"},
    {RequestClass::PtwRead, "ptw-read"},
    {RequestClass::DramCacheFill, "dram-cache-fill"},
};

} // namespace

std::string
toString(SchedPolicyKind kind)
{
    return nameOf(kSchedPolicyNames, kind);
}

std::string
toString(PrefetcherKind kind)
{
    return nameOf(kPrefetcherNames, kind);
}

std::string
toString(RowPolicy policy)
{
    return nameOf(kRowPolicyNames, policy);
}

std::string
toString(RequestClass cls)
{
    return nameOf(kRequestClassNames, cls);
}

} // namespace padc
