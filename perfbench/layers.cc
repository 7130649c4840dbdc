#include "layers.hh"

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_map.hh"
#include "mem/ddr.hh"
#include "mem/dram.hh"
#include "mem/vmem.hh"
#include "pim/locality_monitor.hh"
#include "pim/pim_directory.hh"

namespace perfbench
{

namespace
{

using pei::Addr;

/** Streams cycle through this many pre-drawn addresses. */
constexpr std::size_t stream_len = 1 << 16;

/** Timed loops store their result here so they cannot be elided. */
volatile std::uint64_t sink;

/** Median of three timed passes after one warm-up pass. */
template <typename Pass>
double
medianNs(Pass &&pass)
{
    pass();
    double v[3] = {pass(), pass(), pass()};
    std::sort(v, v + 3);
    return v[1];
}

/** Host ns per operation of @p n operations timed from @p start. */
double
nsPer(Clock::time_point start, std::uint64_t n)
{
    return seconds(Clock::now() - start) * 1e9 / static_cast<double>(n);
}

/** Block-aligned addresses drawn uniformly from [0, bytes). */
std::vector<Addr>
blockStream(std::uint64_t bytes, pei::Rng &rng)
{
    const std::uint64_t blocks = std::max<std::uint64_t>(
        bytes / pei::block_size, 1);
    std::vector<Addr> out(stream_len);
    for (Addr &a : out)
        a = rng.below(blocks) * pei::block_size;
    return out;
}

// ---- sim: an event queue held at a fixed pending depth ----

struct QueueLoad
{
    pei::EventQueue *eq;
    std::uint64_t lcg;
    std::uint64_t remaining;
};

/** Each event schedules one successor 1..256 ticks out. */
void
queueStep(QueueLoad *q)
{
    if (q->remaining == 0)
        return;
    --q->remaining;
    q->lcg = q->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    q->eq->schedule(1 + (q->lcg >> 56), [q] { queueStep(q); });
}

double
queueNsPerEvent(std::uint64_t depth, std::uint64_t seed)
{
    constexpr std::uint64_t events = 400000;
    depth = std::max<std::uint64_t>(depth, 1);
    return medianNs([&] {
        pei::EventQueue eq;
        QueueLoad load{&eq, seed, events};
        for (std::uint64_t d = 0; d < depth; ++d)
            eq.schedule(1 + d % 256, [&load] { queueStep(&load); });
        const Clock::time_point start = Clock::now();
        eq.run();
        return nsPer(start, eq.executedCount());
    });
}

// ---- cpu: one core's TLB over the workload's pages ----

double
tlbNsPerAccess(const pei::SystemConfig &cfg, const LayerInputs &in,
               pei::Rng &rng)
{
    constexpr std::uint64_t n = 200000;
    pei::Tlb tlb(cfg.core.tlb_entries, pei::nsToTicks(cfg.core.tlb_walk_ns));
    const std::vector<Addr> addrs = blockStream(in.footprint_bytes, rng);
    return medianNs([&] {
        pei::Ticks walk = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            walk += tlb.access(addrs[i % stream_len]);
        sink = walk;
        return nsPer(start, n);
    });
}

// ---- cache: the full hierarchy on the ideal backend ----

double
cacheAccessNs(const pei::SystemConfig &cfg, const LayerInputs &in,
              pei::Rng &rng)
{
    constexpr std::uint64_t rounds = 4000;
    pei::SystemConfig c = cfg;
    c.mem_backend = "ideal";
    pei::System sys(c);
    // Miss-heavy: the stream spans at least 16 L3s.
    const std::vector<Addr> addrs = blockStream(
        std::min(std::max(in.footprint_bytes, 16 * c.cache.l3_bytes),
                 c.phys_bytes / 2),
        rng);
    std::uint64_t next = 0;
    return medianNs([&] {
        std::uint64_t done = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t r = 0; r < rounds; ++r) {
            for (unsigned core = 0; core < sys.numCores(); ++core) {
                sys.caches().access(core, addrs[next++ % stream_len],
                                    rng.chance(in.store_share),
                                    [&done] { ++done; });
            }
            sys.eventQueue().run();
        }
        sink = done;
        return nsPer(start, rounds * sys.numCores());
    });
}

// ---- pim: directory acquire/release and monitor lookups ----

double
dirNsPerOp(const pei::SystemConfig &cfg, const LayerInputs &in,
           pei::Rng &rng)
{
    constexpr std::uint64_t n = 200000;
    pei::EventQueue eq;
    pei::StatRegistry stats;
    pei::PimDirectory dir(eq, cfg.pim.directory_entries,
                          cfg.pim.directory_latency, stats,
                          "perfbench_dir");
    const std::vector<Addr> addrs = blockStream(in.footprint_bytes, rng);
    return medianNs([&] {
        std::uint64_t granted = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr block = addrs[i % stream_len] >> pei::block_shift;
            dir.acquire(block, in.writer_peis, [&granted] { ++granted; });
            eq.run();
            dir.release(block, in.writer_peis);
        }
        sink = granted;
        return nsPer(start, n);
    });
}

double
monitorNsPerLookup(const pei::SystemConfig &cfg, const LayerInputs &in,
                   pei::Rng &rng)
{
    constexpr std::uint64_t n = 400000;
    const unsigned ways = cfg.pim.monitor_ways ? cfg.pim.monitor_ways
                                               : cfg.cache.l3_ways;
    const unsigned sets =
        cfg.pim.monitor_sets
            ? cfg.pim.monitor_sets
            : static_cast<unsigned>(cfg.cache.l3_bytes / pei::block_size /
                                    cfg.cache.l3_ways);
    pei::StatRegistry stats;
    pei::LocalityMonitor mon(sets, ways, stats,
                             cfg.pim.monitor_partial_tag_bits,
                             cfg.pim.monitor_ignore_flag, "perfbench_mon");
    const std::vector<Addr> addrs = blockStream(in.footprint_bytes, rng);
    for (std::size_t i = 0; i < stream_len; ++i)
        mon.onL3Access(addrs[i] >> pei::block_shift);
    return medianNs([&] {
        std::uint64_t hits = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i)
            hits += mon.lookupForPei(addrs[(i * 7) % stream_len] >>
                                     pei::block_shift);
        sink = hits;
        return nsPer(start, n);
    });
}

// ---- mem: one vault / one DDR channel, in bursts ----

/**
 * Bursts of @p depth accesses, each burst drained before the next
 * (a queue kept non-empty forever would measure the vault's retry
 * re-arming, not the access path the workloads exercise).
 */
double
portNsPerAccess(pei::EventQueue &eq, pei::MemPort &port,
                const std::vector<Addr> &addrs, double write_share,
                std::uint64_t depth, pei::Rng &rng)
{
    depth = std::max<std::uint64_t>(depth, 1);
    const std::uint64_t bursts = 100000 / depth + 1;
    std::uint64_t next = 0;
    return medianNs([&] {
        std::uint64_t done = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t b = 0; b < bursts; ++b) {
            for (std::uint64_t i = 0; i < depth; ++i) {
                port.accessBlock(addrs[next++ % stream_len],
                                 rng.chance(write_share),
                                 [&done] { ++done; });
            }
            eq.run();
        }
        sink = done;
        return nsPer(start, bursts * depth);
    });
}

double
vaultNsPerAccess(const pei::SystemConfig &cfg, const LayerInputs &in,
                 pei::Rng &rng)
{
    const pei::DramConfig &dram = cfg.hmc.dram;
    pei::EventQueue eq;
    pei::StatRegistry stats;
    const pei::AddrMap map(1, 1, dram.banks_per_vault, dram.row_bytes);
    pei::Vault vault(eq, dram, map, 0, stats);
    const unsigned vaults = cfg.hmc.num_cubes * cfg.hmc.vaults_per_cube;
    const std::vector<Addr> addrs = blockStream(
        std::max<std::uint64_t>(in.footprint_bytes / vaults, 1 << 20), rng);
    return portNsPerAccess(eq, vault, addrs, in.mem_write_share,
                           dram.banks_per_vault, rng);
}

double
ddrNsPerAccess(const pei::SystemConfig &cfg, const LayerInputs &in,
               pei::Rng &rng)
{
    const pei::DdrConfig &ddr = cfg.ddr;
    pei::EventQueue eq;
    pei::StatRegistry stats;
    const pei::AddrMap map(1, 1, ddr.bank_groups * ddr.banks_per_group,
                           ddr.row_bytes);
    pei::DdrChannel chan(eq, ddr, map, 0, stats);
    const std::vector<Addr> addrs = blockStream(
        std::max<std::uint64_t>(in.footprint_bytes / ddr.channels, 1 << 20),
        rng);
    return portNsPerAccess(eq, chan, addrs, in.mem_write_share,
                           in.ddr_queue_depth ? in.ddr_queue_depth : 16,
                           rng);
}

} // namespace

LayerCosts
measureLayers(const pei::SystemConfig &cfg, const LayerInputs &in,
              std::uint64_t seed, SpanLog &spans)
{
    pei::Rng rng(seed);
    LayerCosts c;
    spans.time("layer.sim.event_queue", [&] {
        c.queue_ns_per_event = queueNsPerEvent(in.pending_events, seed);
    });
    spans.time("layer.cpu.tlb",
               [&] { c.tlb_ns_per_access = tlbNsPerAccess(cfg, in, rng); });
    spans.time("layer.cache.hierarchy",
               [&] { c.cache_access_ns = cacheAccessNs(cfg, in, rng); });
    spans.time("layer.pim.directory",
               [&] { c.dir_ns_per_op = dirNsPerOp(cfg, in, rng); });
    spans.time("layer.pim.locality_monitor", [&] {
        c.monitor_ns_per_lookup = monitorNsPerLookup(cfg, in, rng);
    });
    spans.time("layer.mem.vault", [&] {
        c.vault_ns_per_access = vaultNsPerAccess(cfg, in, rng);
    });
    spans.time("layer.mem.ddr_channel",
               [&] { c.ddr_ns_per_access = ddrNsPerAccess(cfg, in, rng); });
    return c;
}

} // namespace perfbench
