/**
 * @file
 * Unit tests for the energy model: component attribution, ratio
 * sanity (DRAM ≫ SRAM per event), and end-to-end properties
 * (PIM-Only on cache-resident data costs more DRAM energy than
 * host-side execution — the Fig. 12 small-input effect).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "energy/energy_model.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

TEST(EnergyModel, ZeroStatsZeroEnergy)
{
    StatRegistry stats;
    Counter dummy;
    stats.add("cache.l1_accesses", &dummy);
    Counter c2, c3, c4, c5, c6, c7;
    stats.add("cache.l2_accesses", &c2);
    stats.add("cache.l3_accesses", &c3);
    stats.add("cache.xbar_msgs", &c4);
    stats.add("link0.flits", &c5);
    stats.add("link1.flits", &c6);
    stats.add("pim_dir.acquires", &c7);
    Counter c8;
    stats.add("loc_mon.lookups", &c8);
    EXPECT_DOUBLE_EQ(computeEnergy(stats).total(), 0.0);
}

TEST(EnergyModel, AttributesComponentsIndependently)
{
    StatRegistry stats;
    Counter l1, l2, l3, xbar, req, res, dir, lookups;
    stats.add("cache.l1_accesses", &l1);
    stats.add("cache.l2_accesses", &l2);
    stats.add("cache.l3_accesses", &l3);
    stats.add("cache.xbar_msgs", &xbar);
    stats.add("link0.flits", &req);
    stats.add("link1.flits", &res);
    stats.add("pim_dir.acquires", &dir);
    stats.add("loc_mon.lookups", &lookups);
    Counter va, vr, vw, cr, cw;
    stats.add("vault0.activates", &va);
    stats.add("vault0.reads", &vr);
    stats.add("vault0.writes", &vw);
    stats.add("chan0.reads", &cr);
    stats.add("chan0.writes", &cw);

    l1 += 100;
    EnergyParams p;
    EXPECT_DOUBLE_EQ(computeEnergy(stats, p).caches,
                     100 * p.l1_access_pj);
    va += 10;
    vr += 20;
    vw += 5;
    const EnergyBreakdown e = computeEnergy(stats, p);
    EXPECT_DOUBLE_EQ(e.dram,
                     10 * p.dram_activate_pj + 25 * p.dram_access_pj);
    // Every vault read or write moves one block over the TSVs.
    EXPECT_DOUBLE_EQ(e.tsv, 25 * p.tsv_per_block_pj);
    // A DDR channel access costs DRAM energy but has no TSVs.
    cr += 7;
    cw += 3;
    const EnergyBreakdown ddr = computeEnergy(stats, p);
    EXPECT_DOUBLE_EQ(ddr.dram,
                     10 * p.dram_activate_pj + 35 * p.dram_access_pj);
    EXPECT_DOUBLE_EQ(ddr.tsv, 25 * p.tsv_per_block_pj);
    req += 3;
    res += 4;
    EXPECT_DOUBLE_EQ(computeEnergy(stats, p).offchip,
                     7 * p.link_flit_pj);
}

TEST(EnergyModel, SumsBothLinksAndPmuAccess)
{
    // The daisy chain's request link0 and response link1 are charged
    // every flit they carry.  The PMU is charged one directory access
    // per acquire and one monitor access per lookup, and nothing else.
    StatRegistry stats;
    Counter c1, c2, c3, c4;
    stats.add("cache.l1_accesses", &c1);
    stats.add("cache.l2_accesses", &c2);
    stats.add("cache.l3_accesses", &c3);
    stats.add("cache.xbar_msgs", &c4);
    Counter l0, l1, dir, mon;
    stats.add("link0.flits", &l0);
    stats.add("link1.flits", &l1);
    stats.add("pim_dir.acquires", &dir);
    stats.add("loc_mon.lookups", &mon);
    // Decoys: the injected per-packet counters, link occupancy, and
    // the non-charged members of the PMU families must stay free.
    Counter net_req, busy, rel, hits;
    stats.add("net.req.flits", &net_req);
    stats.add("link0.busy_ticks", &busy);
    stats.add("pim_dir.releases", &rel);
    stats.add("loc_mon.hits", &hits);

    l0 += 3;
    l1 += 4;
    dir += 18;
    mon += 30;
    net_req += 100;
    busy += 999;
    rel += 21;
    hits += 23;

    EnergyParams p;
    const EnergyBreakdown e = computeEnergy(stats, p);
    EXPECT_DOUBLE_EQ(e.offchip, 7 * p.link_flit_pj);
    EXPECT_DOUBLE_EQ(e.pmu, 18 * p.pim_dir_access_pj +
                                30 * p.loc_mon_access_pj);
}

TEST(EnergyModel, DefaultRatiosAreSane)
{
    // The Fig. 12 story requires DRAM access ≫ off-chip flit ≫ L3
    // ≫ L2 ≫ L1 ≫ TSV hop ≫ PCU op ≫ PMU lookup per event.
    EnergyParams p;
    EXPECT_GT(p.dram_activate_pj, p.link_flit_pj);
    EXPECT_GT(p.dram_access_pj, p.link_flit_pj);
    EXPECT_GT(p.link_flit_pj, p.l3_access_pj);
    EXPECT_GT(p.l3_access_pj, p.l2_access_pj);
    EXPECT_GT(p.l2_access_pj, p.l1_access_pj);
    EXPECT_GT(p.l1_access_pj, p.pim_dir_access_pj);
    EXPECT_GT(p.host_pcu_op_pj, p.pim_dir_access_pj);
}

TEST(EnergyModel, PimOnlyOnCacheResidentDataCostsMoreDram)
{
    // Fig. 12, small inputs: PIM-Only always accesses DRAM, so its
    // DRAM energy dwarfs host-side execution's.
    auto run = [](ExecMode mode) {
        SystemConfig cfg = SystemConfig::scaled(mode);
        cfg.cores = 4;
        cfg.phys_bytes = 64ULL << 20;
        cfg.hmc.vaults_per_cube = 4;
        System sys(cfg);
        Runtime rt(sys);
        const Addr a = rt.allocArray<std::uint64_t>(1 << 10); // 8 KB
        const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
            Rng rng(tid);
            for (int i = 0; i < 2000; ++i)
                co_await ctx.inc64(a + 8 * rng.below(1 << 10));
            co_await ctx.drain();
        };
        rt.spawnThreads(4, kernel);
        rt.run();
        return computeEnergy(sys.stats());
    };
    const EnergyBreakdown host = run(ExecMode::HostOnly);
    const EnergyBreakdown pim = run(ExecMode::PimOnly);
    EXPECT_GT(pim.dram, 5.0 * host.dram);
    EXPECT_GT(pim.offchip, host.offchip);
    EXPECT_LT(host.total(), pim.total());
}

TEST(EnergyModel, MemPcuShareIsSmall)
{
    // §7.7: memory-side PCUs contribute ~1.4% of HMC energy.
    SystemConfig cfg = SystemConfig::scaled(ExecMode::PimOnly);
    cfg.cores = 4;
    cfg.phys_bytes = 64ULL << 20;
    cfg.hmc.vaults_per_cube = 4;
    System sys(cfg);
    Runtime rt(sys);
    const Addr a = rt.allocArray<std::uint64_t>(1 << 16);
    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        Rng rng(tid);
        for (int i = 0; i < 3000; ++i)
            co_await ctx.inc64(a + 8 * rng.below(1 << 16));
        co_await ctx.drain();
    };
    rt.spawnThreads(4, kernel);
    rt.run();
    const EnergyBreakdown e = computeEnergy(sys.stats());
    const double hmc_energy = e.dram + e.tsv + e.offchip + e.pcu;
    EXPECT_LT(e.pcu / hmc_energy, 0.05);
}

} // namespace
} // namespace pei
