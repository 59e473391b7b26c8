#include "common/stats.hh"

#include <cmath>

namespace padc
{

void
StatSet::add(const std::string &name, double value)
{
    entries_.emplace_back(name, value);
}

const std::pair<std::string, double> *
StatSet::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.first == name)
            return &entry;
    }
    return nullptr;
}

double
StatSet::get(const std::string &name) const
{
    const auto *entry = find(name);
    return entry == nullptr ? 0.0 : entry->second;
}

bool
StatSet::has(const std::string &name) const
{
    return find(name) != nullptr;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
amean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

} // namespace padc
