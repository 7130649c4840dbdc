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
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "net/topology.hh"

using namespace pei;
using peibench::RunHandle;
using peibench::result;
using peibench::submitWorkload;

namespace
{

std::uint64_t
stat(const RunResult &r, const char *name)
{
    const auto it = r.stats.find(name);
    return it == r.stats.end() ? 0 : it->second;
}

/** One physical link's counters, pulled out of a stats snapshot. */
struct LinkPoint
{
    unsigned index = 0;
    std::uint64_t flits = 0;
    std::uint64_t busy_ticks = 0;
};

/** Every "link<N>.*" family in @p r, sorted by link index. */
std::vector<LinkPoint>
linkPoints(const RunResult &r)
{
    std::vector<LinkPoint> links;
    for (const auto &[name, value] : r.stats) {
        const char *const sfx = ".busy_ticks";
        if (name.rfind("link", 0) != 0)
            continue;
        if (name.size() <= 4 + std::strlen(sfx) ||
            name.compare(name.size() - std::strlen(sfx),
                         std::strlen(sfx), sfx) != 0) {
            continue;
        }
        const std::string digits =
            name.substr(4, name.size() - 4 - std::strlen(sfx));
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        LinkPoint lp;
        lp.index = static_cast<unsigned>(std::stoul(digits));
        lp.busy_ticks = value;
        lp.flits = stat(r, ("link" + digits + ".flits").c_str());
        links.push_back(lp);
    }
    std::sort(links.begin(), links.end(),
              [](const LinkPoint &a, const LinkPoint &b) {
                  return a.index < b.index;
              });
    return links;
}

double
utilization(const LinkPoint &lp, Tick ticks)
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
    s += ",\"req_hops\":" + std::to_string(stat(la, "net.req_hops"));
    s += ",\"res_hops\":" + std::to_string(stat(la, "net.res_hops"));
    s += ",\"links\":[";
    bool first = true;
    for (const LinkPoint &lp : linkPoints(la)) {
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
    peibench::benchInit(argc, argv, "fig14_scaleout",
                        {{"--scaleout-json", true}});

    std::string scaleout_json = PEISIM_ROOT "/BENCH_scaleout.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scaleout-json") == 0 && i + 1 < argc)
            scaleout_json = argv[++i];
        else if (std::strncmp(argv[i], "--scaleout-json=", 16) == 0)
            scaleout_json = argv[i] + 16;
    }

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
            for (const LinkPoint &lp : linkPoints(la))
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
                static_cast<unsigned long long>(
                    stat(la, "net.req_hops")),
                static_cast<unsigned long long>(
                    stat(la, "net.res_hops")),
                max_util);
        }
    }

    // The committed baseline: every point in submission order.
    // --filter'ed (skipped) points are omitted; a failed point
    // suppresses the write so a broken sweep can never silently
    // refresh the baseline.
    bool all_ok = true;
    std::string doc = "{\"bench\":\"fig14_scaleout\",\"points\":[";
    for (const Point &p : points) {
        const RunResult &host = result(p.host);
        const RunResult &la = result(p.la);
        if (host.status == JobStatus::Skipped ||
            la.status == JobStatus::Skipped) {
            continue;
        }
        if (!host.ok() || !la.ok()) {
            all_ok = false;
            continue;
        }
        if (doc.back() != '[')
            doc += ",";
        doc += "\n" + pointJson(p.topo, p.cubes, p.cores, host, la);
    }
    doc += "\n]}\n";
    // Operational note -> stderr: stdout stays byte-identical even
    // when the destination path differs between runs.
    if (all_ok) {
        std::ofstream out(scaleout_json, std::ios::trunc);
        out << doc;
        std::fprintf(stderr, "Scale-out baseline written to %s\n",
                     scaleout_json.c_str());
    } else {
        std::fprintf(stderr,
                     "Scale-out baseline NOT written (failed points).\n");
    }
    return peibench::benchFinish();
}
