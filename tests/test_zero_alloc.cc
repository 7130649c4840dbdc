/**
 * @file
 * Counting-allocator tests proving the event & continuation plumbing
 * is allocation-free in steady state.
 *
 * This executable replaces global operator new/delete with counting
 * wrappers and measures allocation deltas across event-boundary
 * windows:
 *
 *  - a bare EventQueue schedule/run storm, with near and far
 *    delays, must perform exactly zero heap allocations once the
 *    slab arena has grown to its working size;
 *  - a Host-only, L1-resident blocking-PEI segment through the full
 *    stack (core window -> TLB -> PMU -> directory -> PCU -> cache
 *    hierarchy -> coroutine resume) must also reach exact zero per
 *    steady-state window, because every per-operation record lives
 *    in a SlotPool and every callback is an inline Continuation;
 *  - a DDR channel and an HMC vault, each fed bursts of queued
 *    requests, must make exactly zero allocations once their request
 *    pools have grown to the burst depth;
 *  - a locality-aware segment that keeps every wait busy at once
 *    (window slots, directory locks, operand-buffer entries, core and
 *    L3 MSHRs, pfence, drain, a barrier) must reach exact zero per
 *    steady-state window, because every waiter parks in the event
 *    arena through an EventQueue::WaitList;
 *  - a miss-heavy locality-aware segment (the fig06-small regime)
 *    is bounded instead, below 0.006 allocations per event: its
 *    random PEIs keep reaching directory entries whose member vector
 *    has not yet grown to the number of PEIs holding and waiting
 *    there, and those vectors growing once are nearly all it
 *    allocates (4,618 of 4,663 allocations go away when every
 *    entry's vector is reserved up front).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/addr_map.hh"
#include "mem/ddr.hh"
#include "mem/dram.hh"
#include "runtime/runtime.hh"
#include "runtime/sync.hh"
#include "sim/event_queue.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) -
                                      1) &
                                         ~(static_cast<std::size_t>(align) -
                                           1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace pei
{
namespace
{

TEST(ZeroAlloc, EventQueueSteadyStateAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    // Every fourth event lands 256 ticks or more out, in the far
    // heap; it migrates into the wheel while near events are still
    // pending, or on the jump once they have run.
    auto burst = [&] {
        for (int i = 0; i < 256; ++i) {
            const Ticks delay = static_cast<Ticks>(i % 4 == 3 ? 256 + i
                                                             : i % 7);
            eq.schedule(delay, [&sink] { ++sink; });
        }
        eq.run();
    };
    // Warm up: grow the slab arena and the far-heap vector to their
    // steady working size.
    for (int w = 0; w < 64; ++w)
        burst();

    const std::uint64_t before = allocCount();
    for (int w = 0; w < 4096; ++w) // ~1M events
        burst();
    EXPECT_EQ(allocCount() - before, 0u)
        << "bare schedule/run cycles must reuse arena slots";
    EXPECT_EQ(sink, (64u + 4096u) * 256u);
}

TEST(ZeroAlloc, DramControllerSteadyStateAllocatesNothing)
{
    // One channel / one vault of 16 banks: blk = (row << 11) |
    // (column << 4) | bank.  Eight rows per bank give row hits and
    // conflicts.  A burst of 48 is deeper than the median DDR queue
    // (43) of perfbench's rp-medium-ddr-host workload.
    EventQueue eq;
    StatRegistry stats;
    const AddrMap map(1, 1, 16, 8192);
    DdrChannel chan(eq, DdrConfig{}, map, 0, stats);
    Vault vault(eq, DramConfig{}, map, 0, stats);
    Rng rng(7);
    std::uint64_t done = 0;
    auto burst = [&] {
        for (int i = 0; i < 48; ++i) {
            const Addr blk = (rng.below(8) << 11) | rng.below(2048);
            const bool write = rng.chance(0.3);
            chan.accessBlock(blk << block_shift, write, [&done] { ++done; });
            vault.accessBlock(blk << block_shift, write,
                              [&done] { ++done; });
        }
        eq.run();
    };
    // Warm up: grow the request pools, the event arena and the
    // far-heap vector to their working size.
    for (int w = 0; w < 64; ++w)
        burst();

    const std::uint64_t before = allocCount();
    for (int w = 0; w < 2048; ++w)
        burst();
    EXPECT_EQ(allocCount() - before, 0u)
        << "queued DRAM requests must reuse pool slots";
    EXPECT_EQ(done, (64u + 2048u) * 96u);
    EXPECT_GT(stats.get("chan0.refreshes"), 10u);
}

/**
 * Free-function kernel (not a capturing lambda coroutine, whose
 * frame would dangle once the lambda object dies): a long stream of
 * blocking Inc64 PEIs over an array small enough to stay L1-resident,
 * so the whole pipeline runs at full depth with no cache misses.
 */
Task
l1ResidentStorm(Ctx &ctx, Addr array, std::uint64_t n, int ops)
{
    Rng rng(42);
    for (int i = 0; i < ops; ++i) {
        co_await ctx.pei(PeiOpcode::Inc64, array + 8 * rng.below(n),
                         nullptr, 0);
    }
    co_await ctx.pfence();
    co_await ctx.drain();
}

TEST(ZeroAlloc, HostOnlyL1ResidentPeiPipelineIsAllocationFree)
{
    SystemConfig cfg = SystemConfig::scaled(ExecMode::HostOnly);
    cfg.cores = 1;
    cfg.phys_bytes = 64ULL << 20;
    cfg.hmc.num_cubes = 1;
    cfg.hmc.vaults_per_cube = 4;
    System sys(cfg);
    Runtime rt(sys);

    // 2 KB working set inside a 16 KB L1: after the first touch of
    // each block, every access hits L1.
    constexpr std::uint64_t n = 256;
    const Addr array = rt.allocArray<std::uint64_t>(n);

    std::vector<std::uint64_t> marks;
    marks.reserve(4096);
    constexpr std::uint64_t window = 8192;
    sys.eventQueue().setBoundaryProbe(
        [&marks] { marks.push_back(allocCount()); }, window);

    rt.spawn(0, [&](Ctx &ctx) {
        return l1ResidentStorm(ctx, array, n, 60000);
    });
    rt.run();

    ASSERT_GE(marks.size(), 24u) << "segment too short to have windows";
    // Skip the warm-up half (cold caches, pools and per-entry vectors
    // still growing) and the trailing windows (pfence/drain/teardown
    // edge); every steady-state window must be allocation-free.
    const std::size_t lo = marks.size() / 2;
    const std::size_t hi = marks.size() - 2;
    for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_EQ(marks[i + 1] - marks[i], 0u)
            << "window " << i << " of " << marks.size()
            << " allocated on the steady-state PEI path";
    }
}

/**
 * One thread of the every-wait segment.  Per round: async PEIs on 64
 * hot words that every core shares (directory lock waits, a one-entry
 * operand buffer), async loads of two words per block from a block
 * sequence every core shares (a full window, the second load waiting
 * on the core MSHR, stalls for 4 core and 8 L3 MSHRs, L3 MSHR
 * waiters), then pfence, drain and a barrier.
 */
Task
everyWaitStorm(Ctx &ctx, Barrier &barrier, Addr hot, Addr array,
               std::uint64_t blocks, int rounds)
{
    for (int r = 0; r < rounds; ++r) {
        for (Addr w = 0; w < 64; ++w)
            co_await ctx.inc64(hot + 8 * w);
        Rng rng(static_cast<std::uint64_t>(r));
        for (int i = 0; i < 64; ++i) {
            const Addr blk = array + block_size * rng.below(blocks);
            co_await ctx.loadAsync(blk);
            co_await ctx.loadAsync(blk + 8);
        }
        co_await ctx.pfence();
        co_await ctx.drain();
        co_await barrier.arrive();
    }
}

TEST(ZeroAlloc, EveryWaitPathIsAllocationFree)
{
    SystemConfig cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    cfg.cores = 8;
    cfg.phys_bytes = 256ULL << 20;
    cfg.core.window = 16;
    cfg.cache.core_mshrs = 4;
    cfg.cache.l3_mshrs = 8;
    cfg.cache.l3_bytes = 256 << 10;
    cfg.pim.pcu.operand_buffer_entries = 1;
    System sys(cfg);
    Runtime rt(sys);
    Barrier barrier(sys.eventQueue(), cfg.cores);

    const Addr hot = rt.allocArray<std::uint64_t>(64);
    constexpr std::uint64_t blocks = (512 << 10) / block_size; // 2x L3
    const Addr array = rt.alloc(blocks * block_size);

    std::vector<std::uint64_t> marks;
    marks.reserve(4096);
    constexpr std::uint64_t window = 2048;
    sys.eventQueue().setBoundaryProbe(
        [&marks] { marks.push_back(allocCount()); }, window);

    rt.spawnThreads(cfg.cores, [&](Ctx &ctx, unsigned, unsigned) -> Task {
        return everyWaitStorm(ctx, barrier, hot, array, blocks, 200);
    });
    rt.run();

    // Every wait was taken.
    const StatRegistry &stats = sys.stats();
    EXPECT_GT(stats.get("core0.window_stalls"), 0u);
    EXPECT_GT(stats.get("pim_dir.conflicts"), 0u);
    EXPECT_GT(stats.get("host_pcu0.buffer_stalls"), 0u);
    EXPECT_GT(stats.get("cache.l3_mshr_coalesced"), 0u);

    ASSERT_GE(marks.size(), 24u) << "segment too short to have windows";
    // As in the L1-resident test: skip the warm-up half and the
    // trailing windows.
    const std::size_t lo = marks.size() / 2;
    const std::size_t hi = marks.size() - 2;
    std::size_t allocating = 0;
    for (std::size_t i = lo; i < hi; ++i)
        allocating += marks[i + 1] != marks[i];
    EXPECT_EQ(allocating, 0u)
        << "of " << hi - lo << " steady-state windows, "
        << marks[hi] - marks[lo] << " allocations in total";
}

/** Miss-heavy kernel: async PEIs striding far beyond every cache. */
Task
missHeavyStorm(Ctx &ctx, Addr array, std::uint64_t n, unsigned tid,
               int ops)
{
    Rng rng(1000 + tid);
    for (int i = 0; i < ops; ++i)
        co_await ctx.inc64(array + 8 * rng.below(n));
    co_await ctx.pfence();
    co_await ctx.drain();
}

TEST(ZeroAlloc, MissHeavySegmentStaysFarBelowOneAllocPerEvent)
{
    // The fig06-small regime: a locality-aware machine with a working
    // set far past L3, so PEIs split between host execution (cache
    // misses, MSHR waits) and memory-side offload.  Random targets
    // keep reaching directory entries whose member vector has not yet
    // grown, so the bound is a rate, not exact zero.  It sits above
    // today's 0.0048 and below the 0.0213 that the deque and vector
    // wait lists cost before waiters parked in the event arena.
    SystemConfig cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    cfg.cores = 4;
    cfg.phys_bytes = 256ULL << 20;
    cfg.cache.l3_bytes = 256 << 10;
    cfg.hmc.vaults_per_cube = 4;
    System sys(cfg);
    Runtime rt(sys);

    constexpr std::uint64_t n = 1 << 18; // 2 MB >> 256 KB L3
    const Addr array = rt.allocArray<std::uint64_t>(n);
    rt.spawnThreads(cfg.cores,
                    [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        return missHeavyStorm(ctx, array, n, tid, 20000);
                    });

    const std::uint64_t allocs_before = allocCount();
    const std::uint64_t events_before = sys.eventQueue().executedCount();
    rt.run();
    const double allocs =
        static_cast<double>(allocCount() - allocs_before);
    const double events = static_cast<double>(
        sys.eventQueue().executedCount() - events_before);
    ASSERT_GT(events, 100000.0);
    EXPECT_LT(allocs / events, 0.006)
        << allocs << " allocations over " << events << " events";
}

} // namespace
} // namespace pei
