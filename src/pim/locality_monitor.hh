/**
 * @file
 * Locality monitor: the PMU structure that predicts per-PEI data
 * locality (paper §4.3).
 *
 * A tag array with the same sets/ways as the last-level cache, but
 * holding only a 10-bit folded-XOR *partial* tag, LRU replacement
 * info, and a 1-bit ignore flag per way.  It is updated on every L3
 * access *and* whenever a PIM operation is issued to memory, so the
 * locality of PEI targets is tracked regardless of where they
 * execute.  A PEI whose target hits in the monitor is predicted to
 * have high locality and is executed host-side — except the first
 * hit on an entry allocated by a PIM issue, which the ignore flag
 * suppresses (first-touch PIM allocations are not yet "hot").
 *
 * Like CacheArray, the monitor keeps its ways in dense arrays: u32
 * partial tags (all ones marks an empty way, so a tag has at most 31
 * bits), u64 LRU stamps and u8 ignore flags.  A lookup compares one
 * set's tags as a row of 4-byte words.
 */

#ifndef PEISIM_PIM_LOCALITY_MONITOR_HH
#define PEISIM_PIM_LOCALITY_MONITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pei
{

/** The PMU's locality-prediction tag array. */
class LocalityMonitor
{
  public:
    /**
     * @param sets/@p ways   mirror the L3 tag-array organization.
     * @param partial_tag_bits  width of the folded-XOR partial tag,
     *                          1 to 31 bits.
     * @param use_ignore_flag   ablation hook for the ignore bit.
     */
    LocalityMonitor(unsigned sets, unsigned ways, StatRegistry &stats,
                    unsigned partial_tag_bits = 10,
                    bool use_ignore_flag = true,
                    const std::string &name = "loc_mon");

    /**
     * PEI-issue query: does the target block have high locality?
     * Consumes the first hit on ignore-flagged entries.
     */
    bool lookupForPei(Addr block);

    /** Update on a last-level cache access to @p block. */
    void onL3Access(Addr block);

    /** Update on a PIM operation being issued to memory. */
    void onPimIssue(Addr block);

    /** Access latency in ticks (CACTI-derived 3 cycles by default). */
    Ticks accessLatency() const { return latency; }
    void setAccessLatency(Ticks t) { latency = t; }

    std::uint64_t lookups() const { return stat_lookups.value(); }
    std::uint64_t hits() const { return stat_hits.value(); }
    std::uint64_t misses() const { return stat_misses.value(); }
    std::uint64_t ignoredHits() const { return stat_ignored_hits.value(); }

  private:
    /** Partial tag of an empty way; no 31-bit tag can equal it. */
    static constexpr std::uint32_t no_tag = ~std::uint32_t{0};
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Index of the first way of @p block's set. */
    std::size_t
    firstWay(Addr block) const
    {
        return static_cast<std::size_t>(block & (sets - 1)) * ways;
    }

    std::uint32_t
    tagOf(Addr block) const
    {
        return static_cast<std::uint32_t>(
            foldedXor(block >> set_bits, tag_bits));
    }

    /** Index of the way whose partial tag matches, or npos. */
    std::size_t find(Addr block) const;
    void insertOrPromote(Addr block, bool from_pim);

    unsigned sets;
    unsigned ways;
    unsigned set_bits;
    unsigned tag_bits;
    bool use_ignore_flag;
    Ticks latency = 3;
    std::uint64_t use_clock = 0;
    std::vector<std::uint32_t> tags;   ///< per way; no_tag when empty
    std::vector<std::uint64_t> stamps; ///< per-way LRU stamps
    std::vector<std::uint8_t> ignore;  ///< per-way ignore flags

    Counter stat_lookups;
    Counter stat_hits;
    Counter stat_misses;
    Counter stat_ignored_hits;
};

} // namespace pei

#endif // PEISIM_PIM_LOCALITY_MONITOR_HH
