/**
 * @file
 * Arena-allocated, structure-of-arrays storage for the memory request
 * buffer.
 *
 * The controller's scheduler scan is the per-cycle hot loop; storing the
 * fields it reads (row, seq, core, request class) as dense parallel
 * columns keeps the scan cache-linear, while the full Request records
 * live in stable arena slots (slot indices never move, so bank shards
 * and the address index hold plain uint32 slot numbers instead of list
 * iterators). An intrusive prev/next chain preserves enqueue order for
 * the two walks that depend on it: APD's drop scan and the next-event
 * APD bound.
 *
 * Slot identity is never a scheduling input -- every priority decision
 * keys off the stored seq -- so LIFO slot reuse cannot perturb
 * scheduling decisions relative to the old list-based buffer.
 */

#ifndef PADC_MEMCTRL_REQUEST_POOL_HH
#define PADC_MEMCTRL_REQUEST_POOL_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "memctrl/request.hh"

namespace padc::memctrl
{

/**
 * Fixed-capacity request arena with hot-field columns and an intrusive
 * insertion-order list. Capacity equals the request buffer size, so
 * "arena full" and "buffer full" coincide.
 */
class RequestPool
{
  public:
    /** Sentinel slot number ("no slot" / end of chain). */
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    explicit RequestPool(std::uint32_t capacity)
        : slots_(capacity), next_(capacity, kNone), prev_(capacity, kNone),
          row_(capacity, 0), seq_(capacity, 0), core_(capacity, 0),
          cls_(capacity, RequestClass::DemandRead)
    {
        free_.reserve(capacity);
        for (std::uint32_t i = capacity; i > 0; --i)
            free_.push_back(i - 1);
    }

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }
    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return free_.empty(); }

    /**
     * Claim a slot and link it at the tail of the insertion-order list.
     * The caller fills the record, then calls syncHot().
     * @pre !full()
     */
    std::uint32_t allocate()
    {
        assert(!free_.empty());
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        next_[slot] = kNone;
        prev_[slot] = tail_;
        if (tail_ != kNone)
            next_[tail_] = slot;
        else
            head_ = slot;
        tail_ = slot;
        ++size_;
        return slot;
    }

    /**
     * Unlink @p slot from the insertion-order list and recycle it. The
     * record contents stay readable until the slot is re-allocated
     * (completion callbacks may still hold a reference during teardown
     * of the owning call frame).
     */
    void release(std::uint32_t slot)
    {
        const std::uint32_t p = prev_[slot];
        const std::uint32_t n = next_[slot];
        if (p != kNone)
            next_[p] = n;
        else
            head_ = n;
        if (n != kNone)
            prev_[n] = p;
        else
            tail_ = p;
        free_.push_back(slot);
        --size_;
    }

    Request &at(std::uint32_t slot) { return slots_[slot]; }
    const Request &at(std::uint32_t slot) const { return slots_[slot]; }

    /** Slot number of a record obtained from at(). */
    std::uint32_t slotOf(const Request &req) const
    {
        return static_cast<std::uint32_t>(&req - slots_.data());
    }

    /** First slot in enqueue order, or kNone when empty. */
    std::uint32_t head() const { return head_; }

    /** Successor of @p slot in enqueue order, or kNone at the tail. */
    std::uint32_t next(std::uint32_t slot) const { return next_[slot]; }

    // Hot columns for the scheduler scan.
    std::uint64_t rowOf(std::uint32_t slot) const { return row_[slot]; }
    std::uint64_t seqOf(std::uint32_t slot) const { return seq_[slot]; }
    CoreId coreOf(std::uint32_t slot) const { return core_[slot]; }
    RequestClass classOf(std::uint32_t slot) const { return cls_[slot]; }

    /**
     * Re-derive the hot columns from the stored record. Call after any
     * write to a field the scheduler scan reads (enqueue, promotion).
     */
    void syncHot(std::uint32_t slot)
    {
        const Request &req = slots_[slot];
        row_[slot] = req.coord.row;
        seq_[slot] = req.seq;
        core_[slot] = req.core;
        cls_[slot] = req.cls;
    }

  private:
    std::vector<Request> slots_;
    std::vector<std::uint32_t> next_; ///< insertion-order forward links
    std::vector<std::uint32_t> prev_; ///< insertion-order backward links

    std::vector<std::uint64_t> row_;  ///< DRAM row (hot column)
    std::vector<std::uint64_t> seq_;  ///< FCFS sequence (hot column)
    std::vector<CoreId> core_;        ///< owning core (hot column)
    std::vector<RequestClass> cls_;   ///< request class (hot column)

    std::vector<std::uint32_t> free_; ///< LIFO free list
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
    std::uint32_t size_ = 0;
};

} // namespace padc::memctrl

#endif // PADC_MEMCTRL_REQUEST_POOL_HH
