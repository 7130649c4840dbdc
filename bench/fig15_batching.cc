/**
 * @file
 * Batched-dispatch study (beyond the paper's per-operation PEI
 * dispatch): Average Teenage Follower under PIM-Only as the PMU
 * batching window (`--pei-batch`) grows.
 *
 * Every memory-bound PEI normally crosses the off-chip link as its
 * own request packet (head flit + operand flits).  The batching
 * window coalesces same-vault PEIs into packet trains that share one
 * header and one coherence action, so the request-side flit count
 * drops as the batch limit rises — the effect this bench quantifies.
 *
 * Besides the table, the bench writes BENCH_batching.json (default at
 * the repo root; --batching-json overrides) with every point's
 * throughput, train, and flit figures in submission order —
 * byte-identical for any --jobs.  On a backend without PIM units
 * (`--mem-backend ddr`) the batch limit changes nothing, so the bench
 * submits no run, prints one line saying so, and its baseline has no
 * points.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "mem/backend.hh"

using namespace peibench;

namespace
{

/** Flits over both links of the chain. */
std::uint64_t
linkFlits(const RunResult &r)
{
    return r.stat("link0.flits") + r.stat("link1.flits");
}

double
peisPerSecond(const RunResult &r)
{
    return r.ticks ? static_cast<double>(r.stat("pmu.peis_issued")) *
                         static_cast<double>(ticks_per_second) /
                         static_cast<double>(r.ticks)
                   : 0.0;
}

std::string
pointJson(unsigned batch, const RunResult &r, std::uint64_t base_link_flits)
{
    const std::uint64_t flits = linkFlits(r);
    std::string s = "{\"batch\":" + std::to_string(batch);
    s += ",\"ticks\":" + std::to_string(r.ticks);
    s += ",\"peis\":" + std::to_string(r.stat("pmu.peis_issued"));
    s += ",\"peis_per_s\":" + fmt("%.0f", peisPerSecond(r));
    s += ",\"trains\":" + std::to_string(r.stat("pmu.pei_trains"));
    s += ",\"batched_peis\":" + std::to_string(r.stat("pmu.batched_peis"));
    s += ",\"req_flits\":" + std::to_string(r.stat("net.req.flits"));
    s += ",\"link_flits\":" + std::to_string(flits);
    s += ",\"link_flit_reduction\":" +
         fmt("%.3f", base_link_flits
                         ? 1.0 - static_cast<double>(flits) /
                                     static_cast<double>(base_link_flits)
                         : 0.0);
    s += "}";
    return s;
}

} // namespace

Renderer
fig15Batching()
{
    const std::string backend = config(ExecMode::PimOnly).mem_backend;
    if (!memoryBackendSupportsPim(backend)) {
        return [backend] {
            std::printf("Batched dispatch study skipped: the %s backend has "
                        "no PIM units, so --pei-batch changes nothing\n",
                        backend.c_str());
            writeBaseline({});
        };
    }
    struct Point
    {
        unsigned batch;
        RunHandle run;
    };
    std::vector<Point> points;
    for (const unsigned batch : {1u, 4u, 8u}) {
        const auto tweak = [batch](SystemConfig &cfg) {
            cfg.pim.pei_batch = batch;
        };
        // PIM-Only sends every PEI to the memory side, so the window
        // sees the densest same-vault arrival stream the workload can
        // produce — the regime batching targets.
        points.push_back({batch, submit(WorkloadKind::ATF, InputSize::Medium,
                                        ExecMode::PimOnly, tweak,
                                        "atf/batch" + std::to_string(batch))});
    }
    return [points] {
        std::printf("==================================================="
                    "===========================\n");
        std::printf("Batched dispatch study — ATF (PIM-Only) across "
                    "PMU batch limits\n");
        std::printf("Extension: per-op dispatch sends one request packet "
                    "per PEI; the batching window\n");
        std::printf("coalesces same-vault PEIs into trains sharing one "
                    "header flit and one coherence act\n");
        std::printf("Config: SystemConfig::scaled() base; --pei-batch "
                    "swept below\n");
        std::printf("==================================================="
                    "===========================\n");

        // The batch=1 point is the per-op dispatch baseline every
        // reduction figure is computed against.
        std::uint64_t base_link_flits = 0;
        for (const Point &p : points) {
            if (p.batch == 1 && result(p.run).ok())
                base_link_flits = linkFlits(result(p.run));
        }

        std::printf("\n%5s %14s %12s %8s %8s %10s %10s %7s\n", "batch",
                    "ticks", "PEIs/s", "trains", "batched", "req flits",
                    "link flits", "reduc");
        for (const Point &p : points) {
            if (!allOk({p.run}))
                continue;
            const RunResult &r = result(p.run);
            const std::uint64_t flits = linkFlits(r);
            std::printf(
                "%5u %14llu %12.3e %8llu %8llu %10llu %10llu %6.1f%%\n",
                p.batch, static_cast<unsigned long long>(r.ticks),
                peisPerSecond(r),
                static_cast<unsigned long long>(r.stat("pmu.pei_trains")),
                static_cast<unsigned long long>(r.stat("pmu.batched_peis")),
                static_cast<unsigned long long>(r.stat("net.req.flits")),
                static_cast<unsigned long long>(flits),
                base_link_flits
                    ? 100.0 * (1.0 - static_cast<double>(flits) /
                                         static_cast<double>(base_link_flits))
                    : 0.0);
        }

        std::vector<BaselinePoint> baseline;
        for (const Point &p : points) {
            baseline.push_back({{p.run}, [&p, base_link_flits] {
                                    return pointJson(p.batch, result(p.run),
                                                     base_link_flits);
                                }});
        }
        writeBaseline(baseline);
    };
}
