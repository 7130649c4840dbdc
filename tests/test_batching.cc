/**
 * @file
 * Batched PEI dispatch: PMU coalescing windows.
 *
 * Directed scenarios with hand-computed expectations:
 *  - a coalesced 4-PEI train shares one compound header (2 request
 *    flits) where 4 singleton dispatches pay 4, and a window flushes
 *    as one train the moment it fills;
 *  - a partial window flushes on the window timer;
 *  - --pei-batch=1 is byte-identical to the default pipeline;
 *  - the energy model charges a train by its actual link flits.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "fixture.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

// ------------------------------------------------- coalescing window

/**
 * 4 async inc64 PEIs to 4 distinct blocks of the same vault (tiny
 * config: 4 global vaults, so a 4-block stride keeps the vault bits
 * constant), then drain.
 */
Task
sameVaultIncKernel(Ctx &ctx, Addr base, unsigned n)
{
    constexpr unsigned vaults = 4;
    for (unsigned i = 0; i < n; ++i)
        co_await ctx.inc64(base + i * vaults * block_size);
    co_await ctx.drain();
}

/** Run @p n same-vault inc64s under the given batch size. */
std::map<std::string, std::uint64_t>
runSameVaultIncs(unsigned n, unsigned pei_batch, Tick *end_ticks = nullptr)
{
    SystemConfig cfg = fixture::tinyConfig(ExecMode::PimOnly);
    cfg.pim.pei_batch = pei_batch;
    System sys(cfg);
    Runtime rt(sys);
    const Addr base = rt.alloc(4 * n * block_size);
    for (unsigned i = 0; i < 4 * n; ++i)
        sys.memory().write<std::uint64_t>(base + i * block_size, 0);

    rt.spawn(0, [&](Ctx &ctx) { return sameVaultIncKernel(ctx, base, n); });
    rt.run();

    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(sys.memory().read<std::uint64_t>(
                      base + i * 4 * block_size),
                  1u)
            << "inc64 #" << i << " lost";
    }
    EXPECT_TRUE(sys.stats().audit().empty());
    if (end_ticks)
        *end_ticks = sys.eventQueue().now();
    return sys.stats().snapshot();
}

TEST(BatchingWindow, CoalescedTrainSharesOneHeader)
{
    const auto single = runSameVaultIncs(4, 1);
    const auto batched = runSameVaultIncs(4, 4);

    // The whole window drains as one train carrying all 4 PEIs.
    EXPECT_EQ(batched.at("pmu.pei_trains"), 1u);
    EXPECT_EQ(batched.at("pmu.batched_peis"), 4u);
    EXPECT_EQ(batched.at("pmu.window_singletons"), 0u);
    EXPECT_EQ(batched.at("net.trains.req"), 1u);
    EXPECT_EQ(batched.at("net.trains.peis"), 4u);
    EXPECT_EQ(single.count("pmu.pei_trains"), 0u); // batch off: no stats

    // Hand-computed request flits (16 B flits): four singleton inc64
    // packets are 8 B headers -> 1 flit each = 4 flits; one train is
    // 8 B compound header + 4 x 4 B sub-headers = 24 B -> 2 flits.
    // Demand traffic is identical across the two runs, so the delta
    // isolates the PEI dispatch cost.
    EXPECT_EQ(single.at("net.req.flits") - batched.at("net.req.flits"),
              2u);

    // A window flushes the moment it fills: 8 PEIs at batch 4 leave
    // as exactly two full trains.
    const auto two = runSameVaultIncs(8, 4);
    EXPECT_EQ(two.at("pmu.pei_trains"), 2u);
    EXPECT_EQ(two.at("pmu.batched_peis"), 8u);
    EXPECT_EQ(two.at("pmu.window_singletons"), 0u);
}

TEST(BatchingWindow, PartialWindowFlushesOnTimer)
{
    // 3 PEIs never fill a batch-8 window: only the 256-tick window
    // timer can flush them.
    Tick end = 0;
    const auto stats = runSameVaultIncs(3, 8, &end);
    EXPECT_EQ(stats.at("pmu.pei_trains"), 1u);
    EXPECT_EQ(stats.at("pmu.batched_peis"), 3u);
    EXPECT_GE(end, 256u); // the run waited for the timer
}

// ---------------------------------------------- batch=1 byte-identity

/** A mixed PEI kernel: inc64, fadd, min64 on distinct blocks. */
Task
mixedKernel(Ctx &ctx, Addr base)
{
    co_await ctx.inc64(base);
    co_await ctx.fadd(base + block_size, 1.5);
    co_await ctx.min64(base + 2 * block_size, 7);
    co_await ctx.load(base + 3 * block_size);
    co_await ctx.drain();
    co_await ctx.pfence();
}

std::map<std::string, std::uint64_t>
runMixed(unsigned pei_batch, Tick *end_ticks)
{
    SystemConfig cfg = fixture::tinyConfig(ExecMode::LocalityAware);
    cfg.pim.pei_batch = pei_batch;
    System sys(cfg);
    Runtime rt(sys);
    const Addr base = rt.alloc(4 * block_size);
    for (unsigned i = 0; i < 4; ++i)
        sys.memory().write<std::uint64_t>(base + i * block_size, 100);
    rt.spawn(0, [&](Ctx &ctx) { return mixedKernel(ctx, base); });
    rt.run();
    EXPECT_TRUE(sys.stats().audit().empty());
    *end_ticks = sys.eventQueue().now();
    return sys.stats().snapshot();
}

TEST(BatchingWindow, BatchOneIsByteIdenticalToDefault)
{
    // pei_batch=1 bypasses the window entirely: every counter and
    // the final tick must match the default pipeline exactly.
    Tick end_default = 0, end_batch1 = 0;
    const auto def = runMixed(PimConfig{}.pei_batch, &end_default);
    const auto batch1 = runMixed(1, &end_batch1);
    EXPECT_EQ(end_default, end_batch1);
    EXPECT_EQ(def, batch1);
}

// -------------------------------------------------- energy charging

TEST(BatchingEnergy, TrainChargedByActualFlits)
{
    // The energy model sums "link0.flits" and "link1.flits"; a
    // coalesced train therefore pays for 2 request flits where 4
    // singletons pay 4 (single-cube chain: one request hop).
    const auto single = runSameVaultIncs(4, 1);
    const auto batched = runSameVaultIncs(4, 4);

    StatRegistry single_reg, batched_reg;
    std::vector<Counter> keep(single.size() + batched.size());
    std::size_t k = 0;
    for (const auto &[name, value] : single) {
        keep[k] += value;
        single_reg.add(name, &keep[k++]);
    }
    for (const auto &[name, value] : batched) {
        keep[k] += value;
        batched_reg.add(name, &keep[k++]);
    }

    const EnergyParams p;
    const EnergyBreakdown es = computeEnergy(single_reg, p);
    const EnergyBreakdown eb = computeEnergy(batched_reg, p);
    EXPECT_DOUBLE_EQ(es.offchip - eb.offchip, 2.0 * p.link_flit_pj);
}

} // namespace
} // namespace pei
