/**
 * @file
 * In-memory database probing with the HashProbe PEI — the raw Ctx
 * API, without the workload framework.
 *
 * Builds a bucket-chained hash index over simulated memory and runs
 * point lookups: the PEI checks all keys of one 64-byte bucket in
 * memory and returns (match, next-bucket pointer); the host chases
 * the overflow chain, translating each virtual pointer through its
 * own TLB (paper §4.4 — memory never translates addresses).
 *
 *   ./build/examples/inmemory_db [--stats-json <path>]
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "pim/pei_op.hh"
#include "common/rng.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"

using namespace pei;

namespace
{

std::uint64_t
hashKey(std::uint64_t key)
{
    std::uint64_t x = key + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string stats_path = statsJsonPathFromArgs(argc, argv);
    System sys(SystemConfig::scaled(ExecMode::LocalityAware));
    Runtime rt(sys);

    // Build a 4K-bucket index of 16K keys functionally (setup code
    // costs no simulated time).
    constexpr std::uint64_t num_buckets = 4096;
    constexpr std::uint64_t num_keys = 16384;
    const Addr table = rt.alloc((num_buckets + num_keys) * block_size);
    std::uint64_t next_free = num_buckets; // overflow allocation cursor

    VirtualMemory &vm = sys.memory();
    for (std::uint64_t k = 1; k <= num_keys; ++k) {
        const std::uint64_t key = k * 2654435761ULL;
        Addr baddr = table + (hashKey(key) & (num_buckets - 1)) *
                                 block_size;
        while (true) {
            auto bucket = vm.read<HashBucket>(baddr);
            if (bucket.count < HashBucket::max_keys) {
                bucket.keys[bucket.count++] = key;
                vm.write(baddr, bucket);
                break;
            }
            if (bucket.next == 0) {
                bucket.next = table + next_free++ * block_size;
                vm.write(baddr, bucket);
            }
            baddr = bucket.next;
        }
    }

    // Probe with 8 interleaved lookup streams (the software
    // unrolling §5.2 uses so probes overlap in the operand buffer).
    std::uint64_t found = 0, probes = 0;
    const auto prober = [&](Ctx &ctx, unsigned tid, unsigned n) -> Task {
        Rng rng(tid);
        for (int i = 0; i < 4000 / static_cast<int>(n) * 8; ++i) {
            // Half the probes hit, half miss.
            const std::uint64_t key =
                rng.chance(0.5)
                    ? (1 + rng.below(num_keys)) * 2654435761ULL
                    : rng.next() | 1;
            HashProbeIn in{key};
            Addr baddr = table + (hashKey(key) & (num_buckets - 1)) *
                                     block_size;
            while (true) {
                ++probes;
                PimPacket r = co_await ctx.pei(PeiOpcode::HashProbe,
                                               baddr, &in, sizeof(in));
                if (r.output[8]) {
                    ++found;
                    break;
                }
                std::uint64_t next;
                std::memcpy(&next, r.output.data(), 8);
                if (next == 0)
                    break;
                baddr = next;
            }
        }
        co_await ctx.drain();
    };
    rt.spawnThreads(8, prober);

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
        writeRunRecords(stats_path, "inmemory_db",
                        {runRecordJson(sys, wall,
                                       "inmemory_db/Locality-Aware")});

    std::printf("inmemory_db: %llu probes (%llu matched) in %llu "
                "kiloticks\n",
                (unsigned long long)probes, (unsigned long long)found,
                (unsigned long long)(ticks / 1000));
    std::printf("  host-side / memory-side PEIs: %llu / %llu\n",
                (unsigned long long)sys.pmu().peisHost(),
                (unsigned long long)sys.pmu().peisMem());
    return found > 0 ? 0 : 1;
}
