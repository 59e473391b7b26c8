#include "common/histogram.hh"

#include <algorithm>
#include <cmath>

namespace padc
{

Histogram::Histogram(std::uint64_t bucket_width, std::uint32_t buckets)
    : width_(bucket_width), counts_(buckets + 1, 0)
{
}

void
Histogram::sample(std::uint64_t value)
{
    std::uint64_t idx = value / width_;
    if (idx >= buckets())
        idx = buckets(); // overflow bucket
    ++counts_[idx];
    ++total_;
    sum_ += static_cast<double>(value);
    if (value > max_)
        max_ = value;
}

std::uint64_t
Histogram::count(std::uint32_t i) const
{
    return i < counts_.size() ? counts_[i] : 0;
}

double
Histogram::mean() const
{
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    // Nearest-rank: the rank-th smallest sample, rank in [1, total].
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total_))));
    std::uint64_t cumulative = 0;
    for (std::uint32_t i = 0; i < buckets(); ++i) {
        cumulative += counts_[i];
        if (cumulative >= rank)
            return static_cast<double>((i + 1) * width_);
    }
    return static_cast<double>(max_); // rank falls in the overflow bucket
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c = 0;
    total_ = 0;
    sum_ = 0.0;
    max_ = 0;
}

} // namespace padc
