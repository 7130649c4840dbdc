/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate
 * itself: the event queue, cache arrays, TLB, PIM directory,
 * locality monitor, DRAM vault model, hash utilities, and R-MAT
 * graph generation, the largest share of a graph run's setup.  These
 * are the ablation hooks DESIGN.md calls out for simulator
 * performance (events/second govern how large an input every figure
 * can afford).
 *
 * Besides the console output, the binary writes a stats-v2 JSON
 * summary (microbenchmark rows plus a full run record of a small
 * locality-aware simulation) to BENCH_substrate.json at the repo
 * root; `--stats-json <path>` overrides the destination.
 *
 * Finally it probes every registered memory backend (hmc, ddr,
 * ideal) with the same deterministic block-access stream and writes
 * the per-backend idle and loaded latencies — in simulated ticks, so
 * the numbers are machine-independent — to BENCH_membackend.json
 * (`--membackend-json <path>` overrides, `--membackend-only` runs
 * just this section).  The committed file is the regression
 * baseline: it only moves when a backend's timing model changes.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "cache/cache_array.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "mem/backend.hh"
#include "mem/backend_config.hh"
#include "mem/dram.hh"
#include "mem/vmem.hh"
#include "pim/locality_monitor.hh"
#include "pim/pim_directory.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"
#include "sim/event_queue.hh"
#include "workloads/graph.hh"

namespace
{

using namespace pei;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Ticks>(i % 7), [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueSchedulingChurn(benchmark::State &state)
{
    // Mixed schedule/partial-drain/schedule cycles: slots churn
    // through the freelist while other events are still pending
    // instead of draining cleanly, the pattern the cache hierarchy
    // and PMU produce under load.
    EventQueue eq;
    Rng rng(11);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 512; ++i)
            eq.schedule(static_cast<Ticks>(rng.below(16)),
                        [&sink] { ++sink; });
        for (int i = 0; i < 256; ++i)
            eq.runOne();
        for (int i = 0; i < 256; ++i)
            eq.schedule(static_cast<Ticks>(rng.below(16)),
                        [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 768);
}
BENCHMARK(BM_EventQueueSchedulingChurn);

void
BM_FoldedXor(benchmark::State &state)
{
    Rng rng(1);
    std::uint64_t v = rng.next();
    for (auto _ : state) {
        v = foldedXor(v, 11) * 0x9E3779B97F4A7C15ULL + 1;
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FoldedXor);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void
BM_CacheArrayFindHit(benchmark::State &state)
{
    CacheArray array(1 << 20, 16);
    Rng rng(3);
    std::vector<Addr> blocks;
    for (int i = 0; i < 4096; ++i) {
        const Addr block = rng.next() >> 20;
        CacheLine &v = array.victim(block);
        array.fill(v, block, MesiState::Shared);
        blocks.push_back(block);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.find(blocks[i]));
        i = (i + 1) % blocks.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFindHit);

void
BM_CacheArrayFindMiss(benchmark::State &state)
{
    // Every set full and every probe absent, so each lookup compares
    // all 16 ways of its set; a hit stops at its way.
    CacheArray array(1 << 20, 16);
    Rng rng(3);
    for (std::uint64_t i = 0; i < 4 * (1 << 20) / block_size; ++i) {
        const Addr block = rng.next() >> 20;
        array.fill(array.victim(block), block, MesiState::Shared);
    }
    std::vector<Addr> blocks;
    for (int i = 0; i < 4096; ++i)
        blocks.push_back((rng.next() >> 20) | (Addr{1} << 44));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.find(blocks[i]));
        i = (i + 1) % blocks.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheArrayFindMiss);

void
BM_TlbAccess(benchmark::State &state)
{
    Tlb tlb(64, 120);
    Rng rng(4);
    std::vector<Addr> addrs;
    for (int i = 0; i < 256; ++i)
        addrs.push_back(rng.below(1 << 28));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.access(addrs[i]));
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbAccess);

void
BM_PimDirectoryAcquireRelease(benchmark::State &state)
{
    EventQueue eq;
    StatRegistry stats;
    PimDirectory dir(eq, 2048, 2, stats, "bm_dir");
    Rng rng(5);
    for (auto _ : state) {
        const Addr block = rng.next() >> 8;
        bool granted = false;
        dir.acquire(block, true, [&granted] { granted = true; });
        eq.run();
        dir.release(block, true);
        benchmark::DoNotOptimize(granted);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PimDirectoryAcquireRelease);

void
BM_LocalityMonitorLookup(benchmark::State &state)
{
    StatRegistry stats;
    LocalityMonitor mon(1024, 16, stats, 10, true, "bm_mon");
    Rng rng(6);
    for (int i = 0; i < 16384; ++i)
        mon.onL3Access(rng.next() >> 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(mon.lookupForPei(rng.next() >> 16));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalityMonitorLookup);

void
BM_VaultAccess(benchmark::State &state)
{
    EventQueue eq;
    StatRegistry stats;
    AddrMap map(1, 1, 16, 8192);
    DramConfig cfg;
    Vault vault(eq, cfg, map, 0, stats);
    Rng rng(7);
    std::uint64_t done = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i) {
            vault.accessBlock(rng.next() & ~0x3FULL & ((1ULL << 30) - 1),
                              i % 2 == 0, [&done] { ++done; });
        }
        eq.run();
    }
    benchmark::DoNotOptimize(done);
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_VaultAccess);

void
BM_VirtualMemoryTranslate(benchmark::State &state)
{
    VirtualMemory vm(1ULL << 30);
    const Addr base = vm.alloc(16 << 20);
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            vm.translate(base + rng.below(16 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VirtualMemoryTranslate);

void
BM_GenRmat(benchmark::State &state)
{
    // The medium graph input (131072 vertices, 655360 edges), seed 1.
    constexpr std::uint64_t edges = 655360;
    for (auto _ : state) {
        const EdgeList el = genRmat(131072, edges, 1);
        benchmark::DoNotOptimize(el.edges.data());
    }
    state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_GenRmat);

void
BM_HistogramRecord(benchmark::State &state)
{
    Histogram h;
    Rng rng(9);
    for (auto _ : state)
        h.record(rng.next() >> 32);
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/** Console reporter that also collects rows for the JSON summary. */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;
        double real_ns = 0.0;
        double items_per_sec = 0.0;
    };
    std::vector<Row> rows;

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            Row row;
            row.name = r.benchmark_name();
            row.real_ns = r.GetAdjustedRealTime();
            auto it = r.counters.find("items_per_second");
            if (it != r.counters.end())
                row.items_per_sec = it->second.value;
            rows.push_back(std::move(row));
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

// ---- per-backend access latency (BENCH_membackend.json) ----

/** Tick-deterministic latency profile of one memory backend. */
struct BackendProfile
{
    std::string name;
    Ticks read_idle_ticks = 0;   ///< lone read round trip
    Ticks write_idle_ticks = 0;  ///< lone (acknowledged) write
    double burst16_avg_ticks = 0.0; ///< mean over 64x 16-deep bursts
};

/**
 * Probe @p name with a fixed block-access stream.  Fresh EventQueue
 * and StatRegistry per backend so stat names cannot collide and no
 * state leaks between probes; all metrics are simulated ticks, so
 * two runs of the same binary agree byte-for-byte.
 */
BackendProfile
profileBackend(const std::string &name)
{
    EventQueue eq;
    StatRegistry stats;
    MemBackendConfig cfg;
    cfg.phys_bytes = 64ULL << 20;
    std::unique_ptr<MemoryBackend> mem =
        createMemoryBackend(name, eq, cfg, stats);

    BackendProfile p;
    p.name = name;

    const auto timed = [&](bool write) {
        const Tick start = eq.now();
        Tick done = start;
        if (write)
            mem->writeBlock(0, [&eq, &done] { done = eq.now(); });
        else
            mem->readBlock(0, [&eq, &done] { done = eq.now(); });
        eq.run();
        return static_cast<Ticks>(done - start);
    };
    p.read_idle_ticks = timed(false);
    p.write_idle_ticks = timed(true);

    // 64 bursts of 16 outstanding reads striding blocks: enough
    // overlap to expose banking/queueing without overrunning any
    // backend's buffering model.
    std::uint64_t total_wait = 0;
    Addr a = 0;
    for (int burst = 0; burst < 64; ++burst) {
        const Tick issue = eq.now();
        for (int i = 0; i < 16; ++i) {
            mem->readBlock(a % cfg.phys_bytes,
                           [&eq, &total_wait, issue] {
                               total_wait += eq.now() - issue;
                           });
            a += block_size * 129; // co-prime stride spreads banks
        }
        eq.run();
    }
    p.burst16_avg_ticks = static_cast<double>(total_wait) / (64 * 16);
    return p;
}

/** Profile every registered backend and write the JSON baseline. */
void
writeMemBackendJson(const std::string &path)
{
    std::ostringstream os;
    os << "{\"tool\":\"micro_substrate_membackend\",\"backends\":[";
    bool first = true;
    for (const std::string &name : memoryBackendNames()) {
        const BackendProfile p = profileBackend(name);
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << p.name << "\",\"read_idle_ticks\":"
           << p.read_idle_ticks << ",\"write_idle_ticks\":"
           << p.write_idle_ticks << ",\"burst16_avg_ticks\":"
           << p.burst16_avg_ticks << "}";
        std::printf("membackend: %-5s read %llu write %llu "
                    "burst16-avg %.1f (ticks)\n",
                    p.name.c_str(),
                    (unsigned long long)p.read_idle_ticks,
                    (unsigned long long)p.write_idle_ticks,
                    p.burst16_avg_ticks);
    }
    os << "]}";
    writeStatsJson(path, os.str());
    std::printf("stats-v2: wrote %s\n", path.c_str());
}

/**
 * Run a small locality-aware simulation so the substrate summary
 * also carries a full stats-v2 run record (PEI latency histograms,
 * counters, audit) of the composed machine.
 */
std::string
substrateRunRecord()
{
    System sys(SystemConfig::scaled(ExecMode::LocalityAware));
    Runtime rt(sys);
    constexpr std::uint64_t n = 1 << 15;
    const Addr array = rt.allocArray<std::uint64_t>(n);
    rt.spawnThreads(sys.numCores(),
                    [&](Ctx &ctx, unsigned tid, unsigned) -> Task {
                        Rng rng(tid);
                        for (int i = 0; i < 4000; ++i)
                            co_await ctx.inc64(array + 8 * rng.below(n));
                        co_await ctx.pfence();
                        co_await ctx.drain();
                    });
    const auto wall_start = std::chrono::steady_clock::now();
    rt.run();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    const auto violations = sys.stats().audit();
    for (const auto &v : violations)
        std::fprintf(stderr, "micro_substrate: stats audit FAILED: %s\n",
                     v.c_str());
    if (!violations.empty())
        std::exit(1);
    return runRecordJson(sys, wall, "substrate_sim/Locality-Aware");
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own flags before google-benchmark sees the args.
    std::string out_path = PEISIM_ROOT "/BENCH_substrate.json";
    std::string membackend_path = PEISIM_ROOT "/BENCH_membackend.json";
    bool membackend_only = false;
    std::vector<char *> bm_argv;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats-json") == 0 && i + 1 < argc) {
            out_path = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
            out_path = argv[i] + 13;
            continue;
        }
        if (std::strcmp(argv[i], "--membackend-json") == 0 &&
            i + 1 < argc) {
            membackend_path = argv[++i];
            continue;
        }
        if (std::strncmp(argv[i], "--membackend-json=", 18) == 0) {
            membackend_path = argv[i] + 18;
            continue;
        }
        if (std::strcmp(argv[i], "--membackend-only") == 0) {
            membackend_only = true;
            continue;
        }
        bm_argv.push_back(argv[i]);
    }
    if (membackend_only) {
        writeMemBackendJson(membackend_path);
        return 0;
    }
    int bm_argc = static_cast<int>(bm_argv.size());
    benchmark::Initialize(&bm_argc, bm_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data()))
        return 1;
    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const std::string record = substrateRunRecord();
    std::ostringstream os;
    os << "{\"tool\":\"micro_substrate\",\"benchmarks\":[";
    for (std::size_t i = 0; i < reporter.rows.size(); ++i) {
        const auto &row = reporter.rows[i];
        if (i)
            os << ",";
        os << "{\"name\":\"" << row.name << "\",\"real_time_ns\":"
           << row.real_ns << ",\"items_per_second\":"
           << row.items_per_sec << "}";
    }
    os << "],\"records\":[" << record << "]}";
    writeStatsJson(out_path, os.str());
    std::printf("stats-v2: wrote %s\n", out_path.c_str());

    writeMemBackendJson(membackend_path);
    return 0;
}
