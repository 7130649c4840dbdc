/**
 * @file
 * End-to-end smoke tests of the full stack: System + Runtime + Ctx
 * coroutines driving loads, stores, and PEIs through the caches,
 * PMU, and HMC under every execution mode.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fixture.hh"
#include "runtime/runtime.hh"
#include "runtime/sync.hh"

namespace pei
{
namespace
{

using fixture::tinyConfig;

class RuntimeSmoke : public ::testing::TestWithParam<ExecMode>
{
};

TEST_P(RuntimeSmoke, LoadStoreRoundTrip)
{
    System sys(tinyConfig(GetParam()));
    Runtime rt(sys);
    const Addr arr = rt.allocArray<std::uint64_t>(1024);

    const auto kernel = [&](Ctx &ctx) -> Task {
        for (std::uint64_t i = 0; i < 1024; ++i) {
            ctx.fwrite<std::uint64_t>(arr + 8 * i, i * i);
            co_await ctx.store(arr + 8 * i);
        }
        for (std::uint64_t i = 0; i < 1024; ++i) {
            const auto v =
                co_await ctx.loadValue<std::uint64_t>(arr + 8 * i);
            EXPECT_EQ(v, i * i);
        }
    };
    rt.spawn(0, kernel);
    const Tick elapsed = rt.run();
    EXPECT_GT(elapsed, 0u);
}

TEST_P(RuntimeSmoke, PeiIncrementAtomicAcrossCores)
{
    System sys(tinyConfig(GetParam()));
    Runtime rt(sys);
    // One heavily contended counter plus distinct counters.
    const Addr hot = rt.allocArray<std::uint64_t>(1);
    const Addr cold = rt.allocArray<std::uint64_t>(64);

    constexpr unsigned threads = 4;
    constexpr unsigned per_thread = 500;
    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        for (unsigned i = 0; i < per_thread; ++i) {
            co_await ctx.inc64(hot);
            co_await ctx.inc64(cold + 8 * ((tid * per_thread + i) % 64));
        }
        co_await ctx.drain();
    };
    rt.spawnThreads(threads, kernel);
    rt.run();

    EXPECT_EQ(sys.memory().read<std::uint64_t>(hot),
              std::uint64_t{threads} * per_thread);
    std::uint64_t cold_sum = 0;
    for (unsigned i = 0; i < 64; ++i)
        cold_sum += sys.memory().read<std::uint64_t>(cold + 8 * i);
    EXPECT_EQ(cold_sum, std::uint64_t{threads} * per_thread);
}

TEST_P(RuntimeSmoke, PeiMinAndFadd)
{
    System sys(tinyConfig(GetParam()));
    Runtime rt(sys);
    const Addr mins = rt.allocArray<std::uint64_t>(16);
    const Addr acc = rt.allocArray<double>(1);
    for (unsigned i = 0; i < 16; ++i)
        sys.memory().write<std::uint64_t>(mins + 8 * i, ~0ULL);

    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        for (unsigned i = 0; i < 16; ++i)
            co_await ctx.min64(mins + 8 * i, 100 + tid * 10 + i);
        for (unsigned i = 0; i < 100; ++i)
            co_await ctx.fadd(acc, 0.5);
        co_await ctx.drain();
    };
    rt.spawnThreads(4, kernel);
    rt.run();

    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(sys.memory().read<std::uint64_t>(mins + 8 * i), 100 + i);
    EXPECT_DOUBLE_EQ(sys.memory().read<double>(acc), 4 * 100 * 0.5);
}

TEST_P(RuntimeSmoke, PfenceOrdersPeisBeforeNormalReads)
{
    System sys(tinyConfig(GetParam()));
    Runtime rt(sys);
    const Addr counters = rt.allocArray<std::uint64_t>(256);
    Barrier barrier(sys.eventQueue(), 4);
    bool checked = false;

    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned n) -> Task {
        for (unsigned i = tid; i < 256; i += n)
            for (unsigned k = 0; k < 8; ++k)
                co_await ctx.inc64(counters + 8 * i);
        co_await ctx.pfence();
        co_await barrier.arrive();
        if (tid == 0) {
            // After the fence every increment must be visible.
            for (unsigned i = 0; i < 256; ++i)
                EXPECT_EQ(ctx.fread<std::uint64_t>(counters + 8 * i), 8u);
            checked = true;
        }
        co_await ctx.drain();
    };
    rt.spawnThreads(4, kernel);
    rt.run();
    EXPECT_TRUE(checked);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, RuntimeSmoke,
    ::testing::Values(ExecMode::HostOnly, ExecMode::PimOnly,
                      ExecMode::IdealHost, ExecMode::LocalityAware),
    [](const ::testing::TestParamInfo<ExecMode> &info) {
        return fixture::execModeTestName(info.param);
    });

TEST(RuntimeSmoke2, CacheInvariantsHoldAfterMixedTraffic)
{
    System sys(tinyConfig(ExecMode::LocalityAware));
    Runtime rt(sys);
    const Addr arr = rt.allocArray<std::uint64_t>(4096);
    Rng rng(5);
    std::vector<std::pair<Addr, bool>> plan;
    for (int i = 0; i < 4000; ++i)
        plan.emplace_back(arr + 8 * rng.below(4096), rng.chance(0.3));

    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned n) -> Task {
        for (std::size_t i = tid; i < plan.size(); i += n) {
            if (plan[i].second)
                co_await ctx.storeAsync(plan[i].first);
            else
                co_await ctx.loadAsync(plan[i].first);
        }
        co_await ctx.drain();
    };
    rt.spawnThreads(4, kernel);
    rt.run();
    sys.caches().checkInvariants();
}

TEST(RuntimeSmoke2, HashProbeReturnsMatchAndNext)
{
    System sys(tinyConfig(ExecMode::LocalityAware));
    Runtime rt(sys);
    const Addr b0 = rt.alloc(sizeof(HashBucket), block_size);
    const Addr b1 = rt.alloc(sizeof(HashBucket), block_size);

    HashBucket bucket0{};
    bucket0.keys[0] = 111;
    bucket0.keys[1] = 222;
    bucket0.count = 2;
    bucket0.next = b1;
    sys.memory().write(b0, bucket0);
    HashBucket bucket1{};
    bucket1.keys[0] = 333;
    bucket1.count = 1;
    bucket1.next = 0;
    sys.memory().write(b1, bucket1);

    bool done = false;
    const auto kernel = [&](Ctx &ctx) -> Task {
        HashProbeIn in{333};
        // Probe chain: miss in bucket0, follow next, hit in bucket1.
        PimPacket r0 = co_await ctx.pei(PeiOpcode::HashProbe, b0, &in,
                                        sizeof(in));
        EXPECT_EQ(r0.output[8], 0);
        std::uint64_t next;
        std::memcpy(&next, r0.output.data(), 8);
        EXPECT_EQ(next, b1);
        PimPacket r1 = co_await ctx.pei(PeiOpcode::HashProbe, next, &in,
                                        sizeof(in));
        EXPECT_EQ(r1.output[8], 1);
        done = true;
    };
    rt.spawn(0, kernel);
    rt.run();
    EXPECT_TRUE(done);
}

TEST(RuntimeDeathTest, UnfinishedTaskWithEmptyQueuePanics)
{
    // One arrival at a two-party barrier: after its load the task
    // waits forever, and the queue drains under it.  The panic names
    // the task's core and the barrier's one parked continuation.
    System sys(tinyConfig(ExecMode::HostOnly));
    Runtime rt(sys);
    const Addr word = rt.allocArray<std::uint64_t>(1);
    Barrier barrier(sys.eventQueue(), 2);
    const auto kernel = [&barrier, word](Ctx &ctx) -> Task {
        co_await ctx.load(word);
        co_await barrier.arrive();
    };
    rt.spawn(0, kernel);
    EXPECT_DEATH(rt.run(),
                 "simulation deadlock: 1 unfinished task\\(s\\) with an "
                 "empty event queue; core\\(s\\) 0; 1 parked "
                 "continuation\\(s\\)");
}

} // namespace
} // namespace pei
