#include "cache/cache.hh"

#include <cassert>
#include <utility>

namespace padc::cache
{

bool
CacheConfig::valid() const
{
    ConfigErrors errors;
    validate(errors, "cache");
    return errors.ok();
}

void
CacheConfig::validate(ConfigErrors &errors, const std::string &prefix) const
{
    if (ways == 0) {
        errors.add(prefix + ".ways", "must be >= 1");
        return; // the remaining checks divide by ways
    }
    if (hit_latency == 0)
        errors.add(prefix + ".hit_latency", "must be >= 1 cycle");
    if (size_bytes % (kLineBytes * ways) != 0) {
        errors.add(prefix + ".size_bytes",
                   "must be a multiple of line size (" +
                       std::to_string(kLineBytes) + ") x ways (" +
                       std::to_string(ways) + "); got " +
                       std::to_string(size_bytes));
        return; // sets() is meaningless below
    }
    const std::uint32_t s = sets();
    if (s == 0 || (s & (s - 1)) != 0) {
        errors.add(prefix + ".size_bytes",
                   "implies " + std::to_string(s) +
                       " sets; the set count must be a non-zero power "
                       "of two");
    }
}

SetAssocCache::SetAssocCache(const CacheConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      set_mask_(config.sets() - 1),
      lines_(static_cast<std::size_t>(config.sets()) * config.ways),
      tags_(lines_.size(), kInvalidAddr), repl_(config.repl)
{
    assert(config_.valid());
}

std::size_t
SetAssocCache::setBase(Addr line_addr) const
{
    return static_cast<std::size_t>(lineIndex(line_addr) & set_mask_) *
           config_.ways;
}

Line *
SetAssocCache::lookup(Addr addr)
{
    // Line addresses have their offset bits clear, so an invalid way's
    // kInvalidAddr never matches and the scan reads only the tags.
    const Addr line_addr = lineAlign(addr);
    const std::size_t base = setBase(line_addr);
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (tags_[base + way] == line_addr)
            return &lines_[base + way];
    }
    return nullptr;
}

bool
SetAssocCache::probe(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->lookup(addr) != nullptr;
}

Line *
SetAssocCache::access(Addr addr)
{
    Line *line = lookup(addr);
    if (line != nullptr) {
        ++stats_.hits;
        line->stamp = next_stamp_++;
        return line;
    }
    ++stats_.misses;
    return nullptr;
}

Line *
SetAssocCache::peek(Addr addr)
{
    return lookup(addr);
}

const Line *
SetAssocCache::peek(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->lookup(addr);
}

EvictResult
SetAssocCache::fill(Addr addr, CoreId owner, Addr pc, bool prefetched,
                    bool fill_row_hit, std::uint32_t service_time)
{
    const Addr line_addr = lineAlign(addr);
    assert(lookup(line_addr) == nullptr && "fill of already-present line");

    const std::size_t base = setBase(line_addr);
    std::uint32_t way = 0;
    while (way < config_.ways && tags_[base + way] != kInvalidAddr)
        ++way;

    EvictResult evicted;
    if (way == config_.ways) {
        way = repl_.victim(config_.ways, [&](std::uint32_t w) {
            return lines_[base + w].stamp;
        });
        const Line &victim = lines_[base + way];
        evicted.valid = true;
        evicted.line_addr = tags_[base + way];
        evicted.dirty = victim.dirty;
        evicted.prefetched_unused = victim.prefetched;
        evicted.owner = victim.owner;
        evicted.pc = victim.pc;
        evicted.service_time = victim.service_time;

        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.dirty_evictions;
        if (victim.prefetched)
            ++stats_.useless_evictions;
    }

    tags_[base + way] = line_addr;
    Line &slot = lines_[base + way];
    slot.dirty = false;
    slot.prefetched = prefetched;
    slot.owner = owner;
    slot.pc = pc;
    slot.fill_row_hit = fill_row_hit;
    slot.service_time = service_time;
    slot.stamp = next_stamp_++;
    ++stats_.fills;
    return evicted;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    Line *line = lookup(addr);
    if (line == nullptr)
        return false;
    const bool was_dirty = line->dirty;
    tags_[static_cast<std::size_t>(line - lines_.data())] = kInvalidAddr;
    *line = Line{};
    return was_dirty;
}

} // namespace padc::cache
