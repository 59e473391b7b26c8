#include "cache/mshr.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace padc::cache
{

MshrFile::MshrFile(std::uint32_t capacity)
    : slots_(capacity), index_(capacity)
{
    free_.reserve(capacity);
    for (std::uint32_t i = capacity; i > 0; --i)
        free_.push_back(i - 1);
}

MshrEntry &
MshrFile::alloc(Addr line_addr)
{
    assert(!full());
    assert(find(line_addr) == nullptr);
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    index_.insert(line_addr, slot);
    // Reset the recycled entry but keep its waiter list's capacity.
    MshrEntry &entry = slots_[slot];
    std::vector<LoadToken> waiters = std::move(entry.waiters);
    waiters.clear();
    entry = MshrEntry{};
    entry.line_addr = line_addr;
    entry.waiters = std::move(waiters);
    peak_ = std::max(peak_, size());
    return entry;
}

void
MshrFile::release(Addr line_addr)
{
    const std::uint32_t slot = index_.find(line_addr);
    assert(slot != LineIndex::kNone);
    index_.erase(line_addr);
    free_.push_back(slot);
}

} // namespace padc::cache
