/**
 * @file
 * Fixed-capacity open-addressed index from a 64-bit key to a 32-bit
 * slot number.
 *
 * The TLB and the MSHR files keep their entries in fixed arrays sized
 * from the configuration; this index finds the slot holding a key
 * (a virtual page, a block address) in O(1) without a heap node per
 * entry.  The table is a power of two of at least twice the capacity,
 * so probe runs stay short; keys are placed by Fibonacci hashing and
 * linear probing, and erase shifts the rest of the run backwards
 * instead of leaving tombstones, so the table never degrades.
 */

#ifndef PEISIM_SIM_SLOT_INDEX_HH
#define PEISIM_SIM_SLOT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pei
{

class SlotIndex
{
  public:
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /** An index for at most @p capacity keys at a time. */
    explicit SlotIndex(std::uint32_t capacity)
        : table(std::max<std::uint64_t>(
              2, std::bit_ceil(2 * std::uint64_t{capacity}))),
          mask(table.size() - 1),
          shift(64 - static_cast<unsigned>(std::countr_zero(table.size())))
    {}

    /** The slot stored for @p key, or npos. */
    std::uint32_t
    find(Addr key) const
    {
        for (std::uint64_t i = home(key);; i = (i + 1) & mask) {
            const Entry &e = table[i];
            if (e.slot == npos || e.key == key)
                return e.slot;
        }
    }

    /** Map @p key (absent, and within capacity) to @p slot. */
    void
    insert(Addr key, std::uint32_t slot)
    {
        std::uint64_t i = home(key);
        while (table[i].slot != npos)
            i = (i + 1) & mask;
        table[i] = Entry{key, slot};
    }

    /** Remove @p key; returns the slot it mapped to, or npos. */
    std::uint32_t
    erase(Addr key)
    {
        std::uint64_t hole = home(key);
        while (table[hole].slot != npos && table[hole].key != key)
            hole = (hole + 1) & mask;
        const std::uint32_t slot = table[hole].slot;
        if (slot == npos)
            return npos;
        // Backward shift: an entry later in the run moves into the
        // hole unless its home lies after the hole, where a lookup
        // would no longer pass over the hole to reach it.
        for (std::uint64_t j = (hole + 1) & mask; table[j].slot != npos;
             j = (j + 1) & mask) {
            if (((j - home(table[j].key)) & mask) >= ((j - hole) & mask)) {
                table[hole] = table[j];
                hole = j;
            }
        }
        table[hole].slot = npos;
        return slot;
    }

  private:
    struct Entry
    {
        Addr key = 0;
        std::uint32_t slot = npos; ///< npos marks an empty cell
    };

    std::uint64_t
    home(Addr key) const
    {
        return (key * 0x9E3779B97F4A7C15ULL) >> shift;
    }

    std::vector<Entry> table;
    std::uint64_t mask;
    unsigned shift;
};

} // namespace pei

#endif // PEISIM_SIM_SLOT_INDEX_HH
