/**
 * @file
 * Scale-out study (beyond the paper's single-cube evaluation):
 * PageRank speedup of Locality-Aware over Host-Only as the machine
 * grows across cores × cubes × interconnect topology (chain / ring /
 * 2D mesh, src/net/interconnect.hh).
 *
 * The paper's Figure 14 directions ("multiple HMCs connected via a
 * packet network") motivate the sweep: a daisy chain serializes every
 * cube's traffic through one link pair, while ring and mesh spread it
 * over per-hop links — visible here as per-link utilization and
 * request/response hop counts.
 *
 * Besides the table, the bench writes BENCH_scaleout.json (default at
 * the repo root; --scaleout-json overrides) with every point's
 * speedup, hop counters, and per-link flit/utilization figures in
 * submission order — byte-identical for any --jobs.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "net/topology.hh"

using namespace pei;
using peibench::LinkStats;
using peibench::RunHandle;
using peibench::result;
using peibench::submitWorkload;

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
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::string
pointJson(const char *topo, unsigned cubes, unsigned cores,
          const RunResult &host, const RunResult &la)
{
    const double speedup =
        la.ticks ? static_cast<double>(host.ticks) /
                       static_cast<double>(la.ticks)
                 : 0.0;
    std::string s = "{\"topology\":\"";
    s += topo;
    s += "\",\"cubes\":" + std::to_string(cubes);
    s += ",\"cores\":" + std::to_string(cores);
    s += ",\"host_ticks\":" + std::to_string(host.ticks);
    s += ",\"pim_ticks\":" + std::to_string(la.ticks);
    s += ",\"speedup\":" + fmt("%.3f", speedup);
    s += ",\"req_hops\":" + std::to_string(la.stat("net.req_hops"));
    s += ",\"res_hops\":" + std::to_string(la.stat("net.res_hops"));
    s += ",\"links\":[";
    bool first = true;
    for (const LinkStats &lp : peibench::linkStats(la)) {
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

int
main(int argc, char **argv)
{
    peibench::benchInit(argc, argv, "fig14_scaleout", {},
                        {"--scaleout-json", "BENCH_scaleout.json"});

    std::printf("==================================================="
                "===========================\n");
    std::printf("Scale-out study — PageRank speedup across cores x "
                "cubes x interconnect topology\n");
    std::printf("Paper: §8 names multi-HMC networks as future work; "
                "chain serializes all cubes\n");
    std::printf("through one link pair, ring/mesh spread the traffic "
                "over per-hop links\n");
    std::printf("Config: SystemConfig::scaled() base; cores, cube "
                "count, and topology swept below\n");
    std::printf("==================================================="
                "===========================\n");

    const char *const topos[] = {"chain", "ring", "mesh"};
    const unsigned cube_counts[] = {2, 8};
    const unsigned core_counts[] = {4, 16};

    struct Point
    {
        const char *topo;
        unsigned cubes;
        unsigned cores;
        RunHandle host;
        RunHandle la;
    };
    std::vector<Point> points;
    for (const char *topo : topos) {
        for (const unsigned cubes : cube_counts) {
            for (const unsigned cores : core_counts) {
                const std::string topo_s = topo;
                const auto tweak = [topo_s, cubes,
                                    cores](SystemConfig &cfg) {
                    const bool ok =
                        parseTopology(topo_s, cfg.hmc.topology);
                    fatal_if(!ok, "fig14: unknown topology '%s'",
                             topo_s.c_str());
                    cfg.hmc.num_cubes = cubes;
                    cfg.cores = cores;
                };
                const std::string stem =
                    std::string("pr/") + topo + "/c" +
                    std::to_string(cubes) + "/cores" +
                    std::to_string(cores) + "/";
                Point p;
                p.topo = topo;
                p.cubes = cubes;
                p.cores = cores;
                // Medium is the regime where Locality-Aware beats
                // Host-Only (Fig. 6), so scale-out effects show up as
                // speedup deltas rather than uniform ~1.0 ratios.
                const auto factory = [] {
                    return makeWorkload(WorkloadKind::PR,
                                        InputSize::Medium);
                };
                p.host = submitWorkload(
                    factory, stem + execModeName(ExecMode::HostOnly),
                    ExecMode::HostOnly, tweak);
                p.la = submitWorkload(
                    factory,
                    stem + execModeName(ExecMode::LocalityAware),
                    ExecMode::LocalityAware, tweak);
                points.push_back(p);
            }
        }
    }
    peibench::sweepRun();

    for (const char *topo : topos) {
        std::printf("\n--- (%s, PageRank medium, Locality-Aware vs. "
                    "Host-Only) ---\n",
                    topo);
        std::printf("%5s %5s %14s %14s %8s %9s %9s %9s\n", "cubes",
                    "cores", "host ticks", "LA ticks", "speedup",
                    "req hops", "res hops", "max util");
        for (const Point &p : points) {
            if (std::strcmp(p.topo, topo) != 0)
                continue;
            if (!peibench::allOk({p.host, p.la}))
                continue;
            const RunResult &host = result(p.host);
            const RunResult &la = result(p.la);
            double max_util = 0.0;
            for (const LinkStats &lp : peibench::linkStats(la))
                max_util =
                    std::max(max_util, utilization(lp, la.ticks));
            std::printf(
                "%5u %5u %14llu %14llu %8.3f %9llu %9llu %9.6f\n",
                p.cubes, p.cores,
                static_cast<unsigned long long>(host.ticks),
                static_cast<unsigned long long>(la.ticks),
                la.ticks ? static_cast<double>(host.ticks) /
                               static_cast<double>(la.ticks)
                         : 0.0,
                static_cast<unsigned long long>(la.stat("net.req_hops")),
                static_cast<unsigned long long>(la.stat("net.res_hops")),
                max_util);
        }
    }

    std::vector<peibench::BaselinePoint> baseline;
    for (const Point &p : points) {
        baseline.push_back({{p.host, p.la}, [&p] {
                                return pointJson(p.topo, p.cubes, p.cores,
                                                 result(p.host),
                                                 result(p.la));
                            }});
    }
    peibench::writeBaseline(baseline);
    return peibench::benchFinish();
}
