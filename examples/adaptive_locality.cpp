/**
 * @file
 * Watching the locality monitor adapt: the same PEI loop runs over
 * working sets from 1/8x to 8x the last-level cache, and the PMU's
 * host/memory split shifts automatically — the behaviour Figure 8
 * of the paper demonstrates with growing graphs.
 *
 *   ./build/examples/adaptive_locality [--stats-json <path>]
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"

int
main(int argc, char **argv)
{
    using namespace pei;
    const std::string stats_path = statsJsonPathFromArgs(argc, argv);
    std::vector<std::string> records;

    std::printf("%-14s %10s %10s %8s %12s\n", "working set",
                "vs L3", "ticks(k)", "PIM%", "offchip(MB)");

    const std::uint64_t l3_bytes =
        SystemConfig::scaled().cache.l3_bytes;
    for (double ratio : {0.125, 0.5, 1.0, 2.0, 4.0, 8.0}) {
        System sys(SystemConfig::scaled(ExecMode::LocalityAware));
        Runtime rt(sys);
        const auto counters = static_cast<std::uint64_t>(
            ratio * static_cast<double>(l3_bytes) / 8.0);
        const Addr array = rt.allocArray<std::uint64_t>(counters);

        const auto kernel = [&](Ctx &ctx, unsigned tid,
                                unsigned) -> Task {
            Rng rng(tid * 7919 + 13);
            for (int i = 0; i < 15000; ++i)
                co_await ctx.inc64(array + 8 * rng.below(counters));
            co_await ctx.drain();
        };
        rt.spawnThreads(sys.numCores(), kernel);
        const auto wall_start = std::chrono::steady_clock::now();
        const Tick ticks = rt.run();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();

        for (const auto &v : sys.stats().audit()) {
            std::fprintf(stderr, "stats audit FAILED: %s\n", v.c_str());
            return 1;
        }
        records.push_back(runRecordJson(
            sys, wall,
            "adaptive_locality/ws" + std::to_string(counters * 8)));

        const double total = static_cast<double>(sys.pmu().peisHost() +
                                                 sys.pmu().peisMem());
        std::printf("%10llu KB %9.3fx %10llu %7.1f%% %12.2f\n",
                    (unsigned long long)(counters * 8 / 1024), ratio,
                    (unsigned long long)(ticks / 1000),
                    100.0 * static_cast<double>(sys.pmu().peisMem()) /
                        total,
                    static_cast<double>(sys.mem().offChipBytes()) /
                        1e6);
    }

    std::printf("\nNo flags changed between rows: the PMU's locality "
                "monitor observes L3 accesses and PIM\nissues, and "
                "steers each PEI to the faster side on its own.\n");
    if (!stats_path.empty())
        writeRunRecords(stats_path, "adaptive_locality", records);
    return 0;
}
