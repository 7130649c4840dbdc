/**
 * @file
 * Tests against the full Table 2 machine (`paperBaseline()`): the
 * 16-core / 16 MB L3 / 8-HMC configuration must construct, run, and
 * show the published structural properties (128 vaults, 2048 banks,
 * 16384-set locality monitor, 576 in-flight-PEI bound).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

TEST(PaperBaseline, StructureMatchesTable2)
{
    const SystemConfig cfg = SystemConfig::paperBaseline();
    EXPECT_EQ(cfg.cores, 16u);
    EXPECT_EQ(cfg.cache.l1_bytes, 32u << 10);
    EXPECT_EQ(cfg.cache.l2_bytes, 256u << 10);
    EXPECT_EQ(cfg.cache.l3_bytes, 16u << 20);
    EXPECT_EQ(cfg.cache.l3_ways, 16u);
    EXPECT_EQ(cfg.cache.core_mshrs, 16u);
    EXPECT_EQ(cfg.cache.l3_mshrs, 64u);
    EXPECT_EQ(cfg.hmc.num_cubes * cfg.hmc.vaults_per_cube, 128u);
    EXPECT_EQ(cfg.hmc.num_cubes * cfg.hmc.vaults_per_cube *
                  cfg.hmc.dram.banks_per_vault,
              2048u);
    EXPECT_DOUBLE_EQ(cfg.hmc.dram.tCL_ns, 13.75);
    EXPECT_EQ(cfg.pim.directory_entries, 2048u);
    // L3 tag organization the locality monitor mirrors: 16384 x 16.
    EXPECT_EQ(cfg.cache.l3_bytes / 64 / cfg.cache.l3_ways, 16384u);
    // 576 in-flight PEIs: 16 host PCUs x 4 + 128 memory PCUs x 4.
    const unsigned in_flight =
        cfg.cores * cfg.pim.pcu.operand_buffer_entries +
        cfg.hmc.num_cubes * cfg.hmc.vaults_per_cube *
            cfg.pim.pcu.operand_buffer_entries;
    EXPECT_EQ(in_flight, 576u);
}

TEST(PaperBaseline, ConstructsAndRunsAllModes)
{
    for (ExecMode mode : {ExecMode::HostOnly, ExecMode::PimOnly,
                          ExecMode::IdealHost, ExecMode::LocalityAware}) {
        SystemConfig cfg = SystemConfig::paperBaseline(mode);
        cfg.phys_bytes = 1ULL << 30; // trim backing allocation
        System sys(cfg);
        EXPECT_EQ(sys.mem().pimUnits(), 128u);
        Runtime rt(sys);
        const Addr a = rt.allocArray<std::uint64_t>(1 << 12);
        const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
            Rng rng(tid);
            for (int i = 0; i < 200; ++i)
                co_await ctx.inc64(a + 8 * rng.below(1 << 12));
            co_await ctx.pfence();
            co_await ctx.drain();
        };
        rt.spawnThreads(sys.numCores(), kernel);
        rt.run();
        std::uint64_t sum = 0;
        for (std::uint64_t i = 0; i < (1 << 12); ++i)
            sum += sys.memory().read<std::uint64_t>(a + 8 * i);
        EXPECT_EQ(sum, 200u * sys.numCores()) << execModeName(mode);
        sys.caches().checkInvariants();
    }
}

TEST(PaperBaseline, BlocksInterleaveAcrossAllVaults)
{
    SystemConfig cfg = SystemConfig::paperBaseline();
    const AddrMap map(cfg.hmc.num_cubes, cfg.hmc.vaults_per_cube,
                      cfg.hmc.dram.banks_per_vault,
                      cfg.hmc.dram.row_bytes);
    std::vector<int> hits(map.totalVaults(), 0);
    for (Addr blk = 0; blk < 128 * 8; ++blk)
        ++hits[map.decode(blk << block_shift).globalVault];
    for (int h : hits)
        EXPECT_EQ(h, 8);
}

TEST(PaperBaseline, SixteenMegabyteL3AbsorbsSmallWorkingSets)
{
    SystemConfig cfg = SystemConfig::paperBaseline(ExecMode::HostOnly);
    cfg.phys_bytes = 1ULL << 30;
    System sys(cfg);
    Runtime rt(sys);
    // 2 MB working set — deep inside the 16 MB L3.
    const Addr a = rt.allocArray<std::uint64_t>(1 << 18);
    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        Rng rng(tid);
        for (int i = 0; i < 4000; ++i)
            co_await ctx.inc64(a + 8 * rng.below(1 << 18));
        co_await ctx.drain();
    };
    rt.spawnThreads(sys.numCores(), kernel);
    rt.run();
    const auto misses = sys.stats().get("cache.l3_misses");
    const auto hits = sys.stats().get("cache.l3_hits");
    // After the cold pass, the L3 serves nearly everything.
    EXPECT_GT(hits + misses, 0u);
    EXPECT_LT(static_cast<double>(misses),
              0.9 * static_cast<double>(hits + misses));
}

} // namespace
} // namespace pei
