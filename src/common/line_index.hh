/**
 * @file
 * Line address -> slot map shared by the memory controller's request
 * buffer and the L2 MSHR file.
 */

#ifndef PADC_COMMON_LINE_INDEX_HH
#define PADC_COMMON_LINE_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace padc
{

/**
 * Fixed-capacity open addressing with linear probing, mapping a line
 * address to the number of the slot that holds it. The table is a power
 * of two at least twice the capacity, so it is at most half full, probes
 * stay short, and erase() backward-shifts its cluster instead of leaving
 * tombstones. Nothing is allocated after construction.
 */
class LineIndex
{
  public:
    /** find() result for an absent line. */
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    explicit LineIndex(std::uint32_t capacity)
    {
        std::uint32_t bits = 1;
        while ((std::size_t{1} << bits) < 2 * std::size_t{capacity})
            ++bits;
        entries_.resize(std::size_t{1} << bits);
        mask_ = entries_.size() - 1;
        shift_ = 64 - bits;
    }

    /** Slot holding @p line, or kNone. */
    std::uint32_t find(Addr line) const
    {
        for (std::size_t i = home(line);; i = (i + 1) & mask_) {
            const Entry &e = entries_[i];
            if (e.slot == kNone || e.line == line)
                return e.slot;
        }
    }

    /** @pre find(line) == kNone and fewer entries than the capacity. */
    void insert(Addr line, std::uint32_t slot)
    {
        std::size_t i = home(line);
        while (entries_[i].slot != kNone)
            i = (i + 1) & mask_;
        entries_[i] = {line, slot};
    }

    /** @pre find(line) != kNone */
    void erase(Addr line)
    {
        std::size_t hole = home(line);
        while (entries_[hole].line != line || entries_[hole].slot == kNone)
            hole = (hole + 1) & mask_;
        // Pull back every later cluster member whose home lies at or
        // before the hole, so find() never stops short of it.
        for (std::size_t j = (hole + 1) & mask_; entries_[j].slot != kNone;
             j = (j + 1) & mask_) {
            const std::size_t from_home = (j - home(entries_[j].line)) & mask_;
            if (from_home >= ((j - hole) & mask_)) {
                entries_[hole] = entries_[j];
                hole = j;
            }
        }
        entries_[hole].slot = kNone;
    }

  private:
    struct Entry
    {
        Addr line = 0;
        std::uint32_t slot = kNone;
    };

    /** Fibonacci hash: line addresses share their low (offset) bits. */
    std::size_t home(Addr line) const
    {
        return static_cast<std::size_t>(
            (line * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 0;
};

} // namespace padc

#endif // PADC_COMMON_LINE_INDEX_HH
