/**
 * @file
 * Miss Status Holding Registers for the L2 cache.
 *
 * Tracks every outstanding L2 miss (demand or prefetch) and the loads
 * waiting for it. The paper sizes the MSHR file identically to the
 * memory request buffer (Table 4), so a full MSHR file is the same
 * back-pressure point as a full request buffer.
 *
 * A demand miss that finds an in-flight *prefetch* entry promotes it
 * (paper Section 4.1: the prefetch becomes a demand and counts as used);
 * Adaptive Prefetch Dropping invalidates entries that still have their
 * prefetch flag set, which is safe exactly because promotion clears it.
 */

#ifndef PADC_CACHE_MSHR_HH
#define PADC_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/line_index.hh"
#include "common/types.hh"

namespace padc::cache
{

/** Identifies a core-side load waiting on a miss. */
struct LoadToken
{
    CoreId core = 0;
    std::uint64_t tag = 0; ///< core-private identifier of the load
};

/** One outstanding L2 miss. */
struct MshrEntry
{
    Addr line_addr = kInvalidAddr;
    CoreId core = 0; ///< core that created the entry
    Addr pc = 0;

    /**
     * Request class of the miss (the class its memory request carries).
     * Prefetch while the miss is still a pure (unpromoted) prefetch;
     * rewritten to DemandRead on promotion.
     */
    RequestClass cls = RequestClass::DemandRead;

    /** True if the miss was created by the prefetcher. */
    bool was_prefetch = false;

    /** True while the miss is still a pure prefetch (unpromoted). */
    bool isPrefetch() const { return cls == RequestClass::Prefetch; }

    /** A store is among the waiters: the line fills dirty. */
    bool store_waiting = false;

    Cycle issue_cycle = 0;

    /** Loads blocked on this line. */
    std::vector<LoadToken> waiters;
};

/**
 * Fixed-capacity MSHR file, indexed by line address: entries live in a
 * slot array found through a LineIndex, so lookups probe a small flat
 * table and nothing is allocated once every slot's waiter list has
 * grown to its working size.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t capacity);

    bool full() const { return free_.empty(); }

    std::size_t size() const { return slots_.size() - free_.size(); }

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    /** Find the entry for @p line_addr, or nullptr. */
    MshrEntry *find(Addr line_addr)
    {
        const std::uint32_t slot = index_.find(line_addr);
        return slot == LineIndex::kNone ? nullptr : &slots_[slot];
    }
    const MshrEntry *find(Addr line_addr) const
    {
        return const_cast<MshrFile *>(this)->find(line_addr);
    }

    /**
     * Allocate an entry. @pre !full() && find(line_addr) == nullptr.
     * @return reference to the new entry for the caller to fill in.
     */
    MshrEntry &alloc(Addr line_addr);

    /** Release the entry for @p line_addr. @pre it exists. */
    void release(Addr line_addr);

    /** Peak occupancy seen (for reporting). */
    std::size_t peak() const { return peak_; }

  private:
    std::vector<MshrEntry> slots_;
    std::vector<std::uint32_t> free_; ///< free slot numbers
    LineIndex index_;                 ///< line address -> slot
    std::size_t peak_ = 0;
};

} // namespace padc::cache

#endif // PADC_CACHE_MSHR_HH
