/**
 * @file
 * Quickstart: the smallest complete peisim program.
 *
 * Builds a simulated 16-core machine with HMC main memory, spawns
 * one thread per core, and has every thread bump shared counters
 * with the Inc64 PIM-enabled instruction.  The PMU decides per
 * operation whether to run it on the issuing core's PCU (through
 * the L1) or inside the memory cube — the program never says where.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [--stats-json <path>]
 */

#include <chrono>
#include <cstdio>

#include "common/rng.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"

int
main(int argc, char **argv)
{
    using namespace pei;
    const std::string stats_path = statsJsonPathFromArgs(argc, argv);

    // A machine with locality-aware PEI execution (the paper's
    // proposal).  SystemConfig::paperBaseline() gives the exact
    // Table 2 machine; scaled() is its fast 1/16 sibling.
    System sys(SystemConfig::scaled(ExecMode::LocalityAware));
    Runtime rt(sys);

    // 64 K counters (512 KB): half the working set fits in the L3.
    constexpr std::uint64_t counters = 1 << 16;
    const Addr array = rt.allocArray<std::uint64_t>(counters);

    // Every thread increments pseudo-random counters with PEIs.
    // peiAsync returns once the operation is issued; the PMU
    // guarantees atomicity between PEIs, so no locks are needed.
    // The coroutine reads its captures through the lambda, so the
    // lambda is named and outlives run().
    const auto kernel = [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
        Rng rng(tid);
        for (int i = 0; i < 20000; ++i) {
            const Addr target = array + 8 * rng.below(counters);
            co_await ctx.inc64(target);
        }
        co_await ctx.pfence(); // all increments visible
        co_await ctx.drain();
    };
    rt.spawnThreads(sys.numCores(), kernel);

    const auto wall_start = std::chrono::steady_clock::now();
    const Tick ticks = rt.run();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

    for (const auto &v : sys.stats().audit()) {
        std::fprintf(stderr, "stats audit FAILED: %s\n", v.c_str());
        return 1;
    }
    if (!stats_path.empty())
        writeRunRecords(stats_path, "quickstart",
                        {runRecordJson(sys, wall,
                                       "quickstart/Locality-Aware")});

    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < counters; ++i)
        total += sys.memory().read<std::uint64_t>(array + 8 * i);

    std::printf("quickstart: %llu increments in %llu ticks "
                "(%.2f us simulated)\n",
                (unsigned long long)total, (unsigned long long)ticks,
                static_cast<double>(ticks) / 4000.0);
    std::printf("  executed on host-side PCUs : %llu\n",
                (unsigned long long)sys.pmu().peisHost());
    std::printf("  offloaded to memory-side   : %llu\n",
                (unsigned long long)sys.pmu().peisMem());
    std::printf("  off-chip traffic           : %.2f MB\n",
                static_cast<double>(sys.mem().offChipBytes()) / 1e6);
    return total == 20000ull * sys.numCores() ? 0 : 1;
}
