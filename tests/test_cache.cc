/**
 * @file
 * Unit tests for the cache hierarchy: hit/miss behaviour, MESI
 * transitions, inclusion, MSHR coalescing and exhaustion, LRU
 * replacement, and the PMU's back-invalidation / back-writeback
 * hooks.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "mem/hmc.hh"

namespace pei
{
namespace
{

struct CacheFixture : public ::testing::Test
{
    CacheFixture()
    {
        hmc_cfg.num_cubes = 1;
        hmc_cfg.vaults_per_cube = 4;
        hmc = std::make_unique<HmcBackend>(eq, hmc_cfg, stats);

        cache_cfg.l1_bytes = 1 << 10;
        cache_cfg.l1_ways = 2;
        cache_cfg.l2_bytes = 4 << 10;
        cache_cfg.l2_ways = 4;
        cache_cfg.l3_bytes = 32 << 10;
        cache_cfg.l3_ways = 8;
        cache_cfg.core_mshrs = 4;
        cache_cfg.l3_mshrs = 8;
        caches = std::make_unique<CacheHierarchy>(eq, cache_cfg, 4, *hmc,
                                                  stats);
    }

    /** Run one access to completion; returns elapsed ticks. */
    Ticks
    doAccess(unsigned core, Addr paddr, bool write)
    {
        const Tick start = eq.now();
        bool done = false;
        caches->access(core, paddr, write, [&done] { done = true; });
        while (!done && eq.runOne()) {}
        EXPECT_TRUE(done);
        return eq.now() - start;
    }

    void
    settle()
    {
        while (eq.runOne()) {}
    }

    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    CacheConfig cache_cfg;
    std::unique_ptr<HmcBackend> hmc;
    std::unique_ptr<CacheHierarchy> caches;
};

TEST_F(CacheFixture, ColdMissThenHit)
{
    const Ticks miss = doAccess(0, 0x1000, false);
    const Ticks hit = doAccess(0, 0x1000, false);
    EXPECT_GT(miss, hit);
    EXPECT_EQ(hit, cache_cfg.l1_latency);
    EXPECT_EQ(stats.get("cache.l1_hits"), 1u);
    EXPECT_EQ(stats.get("cache.l3_misses"), 1u);
}

TEST_F(CacheFixture, ReadFillsExclusive)
{
    doAccess(0, 0x2000, false);
    EXPECT_EQ(caches->l1State(0, 0x2000), MesiState::Exclusive);
    EXPECT_EQ(caches->l2State(0, 0x2000), MesiState::Exclusive);
    EXPECT_TRUE(caches->l3Contains(0x2000));
}

TEST_F(CacheFixture, SecondReaderDowngradesToShared)
{
    doAccess(0, 0x2000, false);
    doAccess(1, 0x2000, false);
    EXPECT_EQ(caches->l1State(0, 0x2000), MesiState::Shared);
    EXPECT_EQ(caches->l1State(1, 0x2000), MesiState::Shared);
    caches->checkInvariants();
}

TEST_F(CacheFixture, WriteInvalidatesRemoteCopies)
{
    doAccess(0, 0x3000, false);
    doAccess(1, 0x3000, false);
    doAccess(2, 0x3000, true);
    EXPECT_EQ(caches->l1State(0, 0x3000), MesiState::Invalid);
    EXPECT_EQ(caches->l1State(1, 0x3000), MesiState::Invalid);
    EXPECT_EQ(caches->l1State(2, 0x3000), MesiState::Modified);
    EXPECT_GE(stats.get("cache.invalidations"), 2u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, WriteUpgradeOnSharedLine)
{
    doAccess(0, 0x3000, false);
    doAccess(1, 0x3000, false);
    // Core 0 upgrades its shared copy.
    doAccess(0, 0x3000, true);
    EXPECT_EQ(caches->l1State(0, 0x3000), MesiState::Modified);
    EXPECT_EQ(caches->l1State(1, 0x3000), MesiState::Invalid);
    caches->checkInvariants();
}

TEST_F(CacheFixture, DirtyRemoteCopyWritesBackOnRead)
{
    doAccess(0, 0x4000, true); // core 0 dirties the block
    doAccess(1, 0x4000, false);
    EXPECT_EQ(caches->l1State(0, 0x4000), MesiState::Shared);
    EXPECT_EQ(caches->l1State(1, 0x4000), MesiState::Shared);
    EXPECT_GE(stats.get("cache.writebacks_l3"), 1u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, InclusionHoldsUnderCapacityPressure)
{
    // Touch far more blocks than L1/L2 can hold.
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        doAccess(i % 4, 0x10000 + 64 * rng.below(512), rng.chance(0.4));
    settle();
    caches->checkInvariants();
}

TEST_F(CacheFixture, L3EvictionBackInvalidatesPrivateCopies)
{
    // Fill one L3 set past associativity; the victim's private
    // copies must disappear (inclusive policy).
    const unsigned l3_sets = static_cast<unsigned>(
        cache_cfg.l3_bytes / 64 / cache_cfg.l3_ways);
    const Addr first = 0x100000;
    doAccess(0, first, false);
    for (unsigned w = 1; w <= cache_cfg.l3_ways; ++w)
        doAccess(1, first + (std::uint64_t{w} * l3_sets << 6), false);
    settle();
    EXPECT_FALSE(caches->l3Contains(first));
    EXPECT_EQ(caches->l1State(0, first), MesiState::Invalid);
    EXPECT_EQ(caches->l2State(0, first), MesiState::Invalid);
    caches->checkInvariants();
}

TEST_F(CacheFixture, MshrCoalescesSameBlock)
{
    int done = 0;
    for (int i = 0; i < 3; ++i)
        caches->access(0, 0x5000 + 8 * i, false, [&done] { ++done; });
    settle();
    EXPECT_EQ(done, 3);
    // One DRAM fetch serves all three word accesses.
    EXPECT_EQ(stats.get("hmc.reads"), 1u);
}

TEST_F(CacheFixture, MshrExhaustionStallsAndRecovers)
{
    int done = 0;
    // 8 distinct blocks > 4 core MSHRs: later ones must stall and
    // still complete.
    for (int i = 0; i < 8; ++i)
        caches->access(0, 0x8000 + 64 * i, false, [&done] { ++done; });
    settle();
    EXPECT_EQ(done, 8);
    caches->checkInvariants();
}

using CacheFixtureDeathTest = CacheFixture;

TEST_F(CacheFixtureDeathTest, ZeroMshrFilesAreRejected)
{
    CacheConfig no_core = cache_cfg;
    no_core.core_mshrs = 0;
    EXPECT_DEATH(CacheHierarchy(eq, no_core, 4, *hmc, stats),
                 "at least one MSHR");
    CacheConfig no_l3 = cache_cfg;
    no_l3.l3_mshrs = 0;
    EXPECT_DEATH(CacheHierarchy(eq, no_l3, 4, *hmc, stats),
                 "at least one MSHR");
}

TEST_F(CacheFixture, BackInvalidateRemovesEveryCopy)
{
    doAccess(0, 0x6000, true); // dirty in core 0
    doAccess(1, 0x6000, false);
    bool done = false;
    caches->backInvalidate(0x6000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_FALSE(caches->contains(0x6000));
    // Dirty data went back to memory.
    EXPECT_GE(stats.get("cache.writebacks_mem"), 1u);
    EXPECT_GE(stats.get("hmc.writes"), 1u);
    caches->checkInvariants();
}

TEST_F(CacheFixture, BackWritebackCleansButKeepsCopies)
{
    doAccess(0, 0x7000, true); // dirty in core 0
    bool done = false;
    caches->backWriteback(0x7000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_TRUE(caches->contains(0x7000));           // copies remain
    EXPECT_GE(stats.get("hmc.writes"), 1u);          // but memory fresh
    EXPECT_NE(caches->l1State(0, 0x7000), MesiState::Modified);
    caches->checkInvariants();
}

TEST_F(CacheFixture, BackInvalidateOnUncachedBlockIsCheap)
{
    bool done = false;
    caches->backInvalidate(0xF0000, [&done] { done = true; });
    settle();
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("hmc.writes"), 0u);
}

TEST_F(CacheFixture, LruVictimIsLeastRecentlyUsed)
{
    CacheArray array(1 << 10, 2); // 8 sets, 2 ways
    const Addr a = 0x100, b = 0x100 + 8, c = 0x100 + 16; // same set
    array.fill(array.victim(a), a, MesiState::Shared);
    array.fill(array.victim(b), b, MesiState::Shared);
    array.touch(*array.find(a)); // b becomes LRU
    CacheLine &v = array.victim(c);
    EXPECT_EQ(array.blockOf(v), b);
}

/**
 * CacheArray's earlier layout, as a reference: block, valid bit and
 * LRU stamp inline in each line, with the same first-invalid-way
 * preference and minimum-stamp victim.  Lines are named by index.
 */
class LineScanArray
{
  public:
    LineScanArray(unsigned sets, unsigned ways)
        : sets(sets), ways(ways), lines(std::size_t{sets} * ways)
    {}

    /** Index of the valid line holding @p block, or -1. */
    long
    find(Addr block) const
    {
        const std::size_t base = (block & (sets - 1)) * ways;
        for (unsigned w = 0; w < ways; ++w) {
            if (lines[base + w].valid && lines[base + w].block == block)
                return static_cast<long>(base + w);
        }
        return -1;
    }

    std::size_t
    victim(Addr block) const
    {
        const std::size_t base = (block & (sets - 1)) * ways;
        std::size_t lru = base;
        for (unsigned w = 0; w < ways; ++w) {
            if (!lines[base + w].valid)
                return base + w;
            if (lines[base + w].last_use < lines[lru].last_use)
                lru = base + w;
        }
        return lru;
    }

    Addr blockAt(std::size_t i) const { return lines[i].block; }
    void touch(std::size_t i) { lines[i].last_use = ++use_clock; }

    void
    fill(std::size_t i, Addr block)
    {
        lines[i].block = block;
        lines[i].valid = true;
        touch(i);
    }

    void
    invalidate(std::size_t i)
    {
        lines[i].block = invalid_addr;
        lines[i].valid = false;
    }

  private:
    struct Line
    {
        Addr block = invalid_addr;
        bool valid = false;
        std::uint64_t last_use = 0;
    };

    unsigned sets;
    unsigned ways;
    std::vector<Line> lines;
    std::uint64_t use_clock = 0;
};

TEST(CacheArray, MatchesLineScanReferenceOpForOp)
{
    // Seeded streams of lookups (half of hits touch), victim picks
    // with fills, and invalidations over three times as many blocks
    // as the array holds, so sets stay full and victims are real LRU
    // picks.  Every lookup and every victim's block must agree.
    constexpr unsigned sets = 8;
    for (unsigned ways : {1u, 2u, 4u, 16u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(::testing::Message()
                         << ways << " ways, seed " << seed);
            CacheArray array(std::uint64_t{sets} * ways * block_size, ways);
            LineScanArray ref(sets, ways);
            Rng rng(seed);
            const std::uint64_t universe = 3 * sets * ways;
            for (int op = 0; op < 20000; ++op) {
                const Addr block = 0x4000 + rng.below(universe);
                CacheLine *line = array.find(block);
                const long ref_line = ref.find(block);
                ASSERT_EQ(line != nullptr, ref_line >= 0)
                    << "find of block " << block << " at op " << op;
                if (line) {
                    ASSERT_EQ(array.blockOf(*line), block);
                    if (rng.below(4) == 0) {
                        array.invalidate(*line);
                        ref.invalidate(static_cast<std::size_t>(ref_line));
                    } else if (rng.below(2) == 0) {
                        array.touch(*line);
                        ref.touch(static_cast<std::size_t>(ref_line));
                    }
                    continue;
                }
                CacheLine &v = array.victim(block);
                const std::size_t ref_v = ref.victim(block);
                ASSERT_EQ(array.blockOf(v), ref.blockAt(ref_v))
                    << "victim for block " << block << " at op " << op;
                array.fill(v, block, MesiState::Shared);
                ref.fill(ref_v, block);
            }
        }
    }
}

class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, RandomTrafficKeepsInvariants)
{
    const auto [ways, cores] = GetParam();
    StatRegistry stats;
    EventQueue eq;
    HmcConfig hmc_cfg;
    hmc_cfg.num_cubes = 1;
    hmc_cfg.vaults_per_cube = 4;
    HmcBackend hmc(eq, hmc_cfg, stats);
    CacheConfig cfg;
    cfg.l1_bytes = 2 << 10;
    cfg.l1_ways = ways;
    cfg.l2_bytes = 8 << 10;
    cfg.l2_ways = ways;
    cfg.l3_bytes = 32 << 10;
    cfg.l3_ways = ways;
    CacheHierarchy caches(eq, cfg, cores, hmc, stats);

    Rng rng(ways * 100 + cores);
    int done = 0, issued = 0;
    for (int i = 0; i < 2000; ++i) {
        ++issued;
        caches.access(static_cast<unsigned>(rng.below(cores)),
                      0x4000 + 64 * rng.below(256), rng.chance(0.5),
                      [&done] { ++done; });
        if (i % 7 == 0)
            eq.runOne();
    }
    while (eq.runOne()) {}
    EXPECT_EQ(done, issued);
    caches.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // namespace
} // namespace pei
