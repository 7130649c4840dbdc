/**
 * @file
 * Scale-out study (beyond the paper's single-cube evaluation):
 * PageRank speedup of Locality-Aware over Host-Only as the machine
 * grows across cores × cubes on the paper's daisy chain
 * (src/net/interconnect.hh).
 *
 * The chain serializes every cube's traffic through one link pair,
 * so adding cubes adds only hop latency — visible here as per-link
 * utilization and request/response hop counts.
 *
 * Besides the table, the bench writes BENCH_scaleout.json (default at
 * the repo root; --scaleout-json overrides) with every point's
 * speedup, hop counters, and per-link flit/utilization figures in
 * submission order — byte-identical for any --jobs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

namespace
{

double
utilization(const LinkStats &lp, Tick ticks)
{
    return ticks ? static_cast<double>(lp.busy_ticks) /
                       static_cast<double>(ticks)
                 : 0.0;
}

std::string
pointJson(unsigned cubes, unsigned cores, const RunResult &host,
          const RunResult &la)
{
    const double speedup =
        la.ticks ? static_cast<double>(host.ticks) /
                       static_cast<double>(la.ticks)
                 : 0.0;
    std::string s = "{\"cubes\":" + std::to_string(cubes);
    s += ",\"cores\":" + std::to_string(cores);
    s += ",\"host_ticks\":" + std::to_string(host.ticks);
    s += ",\"pim_ticks\":" + std::to_string(la.ticks);
    s += ",\"speedup\":" + fmt("%.3f", speedup);
    s += ",\"req_hops\":" + std::to_string(la.stat("net.req_hops"));
    s += ",\"res_hops\":" + std::to_string(la.stat("net.res_hops"));
    s += ",\"links\":[";
    bool first = true;
    for (const LinkStats &lp : linkStats(la)) {
        if (!first)
            s += ",";
        first = false;
        s += "{\"link\":\"link" + std::to_string(lp.index) + "\"";
        s += ",\"flits\":" + std::to_string(lp.flits);
        s += ",\"utilization\":" +
             fmt("%.6f", utilization(lp, la.ticks)) + "}";
    }
    s += "]}";
    return s;
}

} // namespace

Renderer
fig14Scaleout()
{
    struct Point
    {
        unsigned cubes;
        unsigned cores;
        RunHandle host;
        RunHandle la;
    };
    std::vector<Point> points;
    for (const unsigned cubes : {2u, 8u}) {
        for (const unsigned cores : {4u, 16u}) {
            const auto tweak = [cubes, cores](SystemConfig &cfg) {
                cfg.hmc.num_cubes = cubes;
                cfg.cores = cores;
            };
            const std::string stem = "pr/c" + std::to_string(cubes) +
                                     "/cores" + std::to_string(cores) +
                                     "/";
            // Medium is the regime where Locality-Aware beats
            // Host-Only (Fig. 6), so scale-out effects show up as
            // speedup deltas rather than uniform ~1.0 ratios.
            const auto run = [&](ExecMode mode) {
                return submit(WorkloadKind::PR, InputSize::Medium, mode,
                              tweak, stem + execModeName(mode));
            };
            points.push_back({cubes, cores, run(ExecMode::HostOnly),
                              run(ExecMode::LocalityAware)});
        }
    }
    return [points] {
        std::printf("==================================================="
                    "===========================\n");
        std::printf("Scale-out study — PageRank speedup across cores x "
                    "cubes on the daisy chain\n");
        std::printf("Paper: §8 names multi-HMC networks as future work; "
                    "the chain serializes all cubes\n");
        std::printf("through one link pair and adds one hop latency per "
                    "cube passed\n");
        std::printf("Config: SystemConfig::scaled() base; cores and cube "
                    "count swept below\n");
        std::printf("==================================================="
                    "===========================\n");

        std::printf("\n--- (PageRank medium, Locality-Aware vs. "
                    "Host-Only) ---\n");
        std::printf("%5s %5s %14s %14s %8s %9s %9s %9s\n", "cubes", "cores",
                    "host ticks", "LA ticks", "speedup", "req hops",
                    "res hops", "max util");
        for (const Point &p : points) {
            if (!allOk({p.host, p.la}))
                continue;
            const RunResult &host = result(p.host);
            const RunResult &la = result(p.la);
            double max_util = 0.0;
            for (const LinkStats &lp : linkStats(la))
                max_util = std::max(max_util, utilization(lp, la.ticks));
            std::printf("%5u %5u %14llu %14llu %8.3f %9llu %9llu %9.6f\n",
                        p.cubes, p.cores,
                        static_cast<unsigned long long>(host.ticks),
                        static_cast<unsigned long long>(la.ticks),
                        la.ticks ? static_cast<double>(host.ticks) /
                                       static_cast<double>(la.ticks)
                                 : 0.0,
                        static_cast<unsigned long long>(
                            la.stat("net.req_hops")),
                        static_cast<unsigned long long>(
                            la.stat("net.res_hops")),
                        max_util);
        }

        std::vector<BaselinePoint> baseline;
        for (const Point &p : points) {
            baseline.push_back({{p.host, p.la}, [&p] {
                                    return pointJson(p.cubes, p.cores,
                                                     result(p.host),
                                                     result(p.la));
                                }});
        }
        writeBaseline(baseline);
    };
}
