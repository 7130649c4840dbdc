/**
 * @file
 * Set-associative cache tag array with LRU replacement and the
 * directory metadata needed by the shared L3 (sharer vector, owner).
 *
 * The array tracks tags and coherence state only; functional data
 * lives in the backing store (VirtualMemory), which is the standard
 * decoupled functional/timing split for this class of simulator.
 *
 * Each way's block address and LRU stamp sit in dense per-way
 * arrays, apart from the rest of its state, so a lookup or victim
 * pick scans only 8 bytes per way.
 */

#ifndef PEISIM_CACHE_CACHE_ARRAY_HH
#define PEISIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pei
{

/** MESI stable states for private-cache lines. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Returns a short name for a MESI state (for logs/tests). */
inline const char *
mesiName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

/**
 * One cache line's state.  Its block address and LRU stamp live in
 * the owning CacheArray (CacheArray::blockOf).
 */
struct CacheLine
{
    // Directory fields (shared L3 only).
    std::uint32_t sharers = 0; ///< bitmask of cores with a copy
    std::int8_t owner = -1;    ///< core holding E/M, or -1

    bool dirty = false;
    MesiState state = MesiState::Invalid; ///< private caches only
};

/**
 * A set-associative array of CacheLine indexed by block address.
 * Block addresses are full physical addresses shifted by block_shift,
 * so none equals invalid_addr, which marks an empty way.
 */
class CacheArray
{
  public:
    CacheArray(std::uint64_t capacity_bytes, unsigned ways)
        : ways(ways),
          sets(static_cast<unsigned>(capacity_bytes / block_size / ways)),
          tags(static_cast<std::size_t>(sets) * ways, invalid_addr),
          stamps(tags.size(), 0),
          lines(tags.size())
    {
        fatal_if(ways == 0 || sets == 0 || !isPowerOf2(sets),
                 "bad cache geometry: %llu bytes, %u ways",
                 static_cast<unsigned long long>(capacity_bytes), ways);
    }

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways; }

    /** Set index of @p block (a block address). */
    unsigned
    setIndex(Addr block) const
    {
        return static_cast<unsigned>(block & (sets - 1));
    }

    /** Find a valid line holding @p block, or nullptr. */
    CacheLine *
    find(Addr block)
    {
        const std::size_t base = firstWay(block);
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[base + w] == block)
                return &lines[base + w];
        }
        return nullptr;
    }

    /** Block held by @p line, or invalid_addr if it is invalid. */
    Addr blockOf(const CacheLine &line) const { return tags[wayOf(line)]; }

    /** Promote @p line to most-recently-used. */
    void touch(CacheLine &line) { stamps[wayOf(line)] = ++use_clock; }

    /**
     * Choose a victim way in @p block's set: the first invalid line
     * if any, else the LRU line.  The caller handles eviction of a
     * valid victim before reusing it.
     */
    CacheLine &
    victim(Addr block)
    {
        const std::size_t base = firstWay(block);
        for (unsigned w = 0; w < ways; ++w) {
            if (tags[base + w] == invalid_addr)
                return lines[base + w];
        }
        std::size_t lru = base;
        for (unsigned w = 1; w < ways; ++w) {
            if (stamps[base + w] < stamps[lru])
                lru = base + w;
        }
        return lines[lru];
    }

    /** Reset @p line to hold @p block (valid, clean, no directory). */
    void
    fill(CacheLine &line, Addr block, MesiState state)
    {
        tags[wayOf(line)] = block;
        line = CacheLine{};
        line.state = state;
        touch(line);
    }

    /** Invalidate @p line. */
    void
    invalidate(CacheLine &line)
    {
        tags[wayOf(line)] = invalid_addr;
        line = CacheLine{};
    }

    /** Invoke `fn(block, line)` on every valid line (test/debug helper). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (tags[i] != invalid_addr)
                fn(tags[i], lines[i]);
        }
    }

  private:
    std::size_t
    firstWay(Addr block) const
    {
        return static_cast<std::size_t>(setIndex(block)) * ways;
    }

    std::size_t
    wayOf(const CacheLine &line) const
    {
        return static_cast<std::size_t>(&line - lines.data());
    }

    unsigned ways;
    unsigned sets;
    std::vector<Addr> tags;            ///< per way; invalid_addr if empty
    std::vector<std::uint64_t> stamps; ///< per way: last-use clock
    std::vector<CacheLine> lines;
    std::uint64_t use_clock = 0;
};

} // namespace pei

#endif // PEISIM_CACHE_CACHE_ARRAY_HH
