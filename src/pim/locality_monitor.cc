#include "locality_monitor.hh"

#include "common/logging.hh"

namespace pei
{

LocalityMonitor::LocalityMonitor(unsigned sets, unsigned ways,
                                 StatRegistry &stats,
                                 unsigned partial_tag_bits,
                                 bool use_ignore_flag,
                                 const std::string &name)
    : sets(sets), ways(ways), set_bits(floorLog2(sets)),
      tag_bits(partial_tag_bits), use_ignore_flag(use_ignore_flag),
      tags(static_cast<std::size_t>(sets) * ways, no_tag),
      stamps(tags.size(), 0), ignore(tags.size(), 0)
{
    fatal_if(!isPowerOf2(sets) || ways == 0,
             "bad locality monitor geometry %ux%u", sets, ways);
    // An all-ones tag marks an empty way, and foldedXor never ends
    // for a width of 0.
    fatal_if(partial_tag_bits == 0 || partial_tag_bits > 31,
             "locality monitor partial tags must be 1 to 31 bits, not %u",
             partial_tag_bits);
    stats.add(name + ".lookups", &stat_lookups);
    stats.add(name + ".hits", &stat_hits);
    stats.add(name + ".misses", &stat_misses);
    stats.add(name + ".ignored_hits", &stat_ignored_hits);
    stats.addInvariant(
        name + ".hits + misses + ignored_hits == lookups",
        [this] {
            const std::uint64_t parts = stat_hits.value() +
                                        stat_misses.value() +
                                        stat_ignored_hits.value();
            if (parts == stat_lookups.value())
                return std::string();
            return "hits=" + std::to_string(stat_hits.value()) +
                   " misses=" + std::to_string(stat_misses.value()) +
                   " ignored_hits=" +
                   std::to_string(stat_ignored_hits.value()) +
                   " sum to " + std::to_string(parts) + " != lookups=" +
                   std::to_string(stat_lookups.value());
        });
}

std::size_t
LocalityMonitor::find(Addr block) const
{
    const std::size_t base = firstWay(block);
    const std::uint32_t tag = tagOf(block);
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[base + w] == tag)
            return base + w;
    }
    return npos;
}

bool
LocalityMonitor::lookupForPei(Addr block)
{
    ++stat_lookups;
    const std::size_t i = find(block);
    if (i == npos) {
        ++stat_misses;
        return false;
    }
    if (use_ignore_flag && ignore[i]) {
        // First hit on a PIM-allocated entry does not count as high
        // locality, but clears the flag so subsequent hits do.  It is
        // an ignored hit, not a miss: the three outcome counters
        // partition lookups disjointly.
        ignore[i] = 0;
        ++stat_ignored_hits;
        return false;
    }
    ++stat_hits;
    return true;
}

void
LocalityMonitor::insertOrPromote(Addr block, bool from_pim)
{
    if (const std::size_t i = find(block); i != npos) {
        stamps[i] = ++use_clock;
        if (!from_pim)
            ignore[i] = 0; // demand accesses clear the flag
        return;
    }
    // Allocate: the first empty way of the set, else its LRU way.
    // An empty way's stamp is 0 and every fill stamps its way at
    // least 1 (ways are never emptied again), so the first
    // minimum-stamp way is exactly that victim.
    const std::size_t base = firstWay(block);
    std::size_t victim = base;
    for (unsigned w = 1; w < ways; ++w) {
        if (stamps[base + w] < stamps[victim])
            victim = base + w;
    }
    tags[victim] = tagOf(block);
    ignore[victim] = from_pim && use_ignore_flag;
    stamps[victim] = ++use_clock;
}

void
LocalityMonitor::onL3Access(Addr block)
{
    insertOrPromote(block, false);
}

void
LocalityMonitor::onPimIssue(Addr block)
{
    insertOrPromote(block, true);
}

} // namespace pei
