/**
 * @file
 * Figure 8: PageRank performance across the nine Fig. 2 graphs for
 * Host-Only, PIM-Only, and Locality-Aware, plus the fraction of
 * PEIs Locality-Aware executes memory-side ("PIM %").
 *
 * Paper: Locality-Aware shifts gradually from host-side execution
 * (0.3% offloaded on soc-Slashdot0811) to memory-side execution
 * (87% on cit-Patents) as the input grows, tracking or beating the
 * better of the two static configurations throughout.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "workloads/graph.hh"

using namespace pei;
using peibench::RunHandle;
using peibench::result;
using peibench::submitWorkload;

int
main(int argc, char **argv)
{
    peibench::benchInit(argc, argv, "fig08_input_sweep",
                        {{"--backend-sweep", false}});
    peibench::printHeader(
        "Figure 8", "PageRank with different graph sizes",
        "Locality-Aware PIM%% grows 0.3%% -> 87%% with graph size and "
        "its speedup tracks max(Host-Only, PIM-Only)");

    // --backend-sweep adds a memory-backend axis: Locality-Aware
    // re-run per graph on every alternative backend.  Opt-in so the
    // default figure (and its --list labels) stay unchanged.
    bool backend_sweep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--backend-sweep") == 0)
            backend_sweep = true;
    }
    static const char *const kAltBackends[] = {"ddr", "ideal"};

    struct Row
    {
        const NamedGraphSpec *spec;
        RunHandle host, pim, la;
        std::vector<RunHandle> la_alt; ///< per kAltBackends entry
    };
    std::vector<Row> rows;
    for (const NamedGraphSpec &spec : figureGraphs()) {
        auto factory = [spec] {
            return makePageRank(spec.vertices, spec.edges, 1, 1);
        };
        const std::string base = std::string("PR/") + spec.name + "/";
        rows.push_back({&spec,
                        submitWorkload(factory, base + "Host-Only",
                                       ExecMode::HostOnly),
                        submitWorkload(factory, base + "PIM-Only",
                                       ExecMode::PimOnly),
                        submitWorkload(factory, base + "Locality-Aware",
                                       ExecMode::LocalityAware),
                        {}});
        if (backend_sweep) {
            for (const char *b : kAltBackends) {
                rows.back().la_alt.push_back(submitWorkload(
                    factory, base + "Locality-Aware@" + b,
                    ExecMode::LocalityAware, [b](SystemConfig &cfg) {
                        cfg.mem_backend = b;
                        cfg.ddr.channels = cfg.hmc.vaults_per_cube;
                        cfg.ideal_mem.pim_units =
                            cfg.hmc.vaults_per_cube;
                    }));
            }
        }
    }
    peibench::sweepRun();

    std::printf("%-18s %9s | %9s %9s %9s | %6s\n", "graph", "vertices",
                "host-only", "pim-only", "loc-aware", "PIM%");
    for (const Row &row : rows) {
        if (!peibench::allOk({row.host, row.pim, row.la}))
            continue;
        const auto &host = result(row.host);
        const auto &pim = result(row.pim);
        const auto &la = result(row.la);
        const auto speed = [&](const peibench::RunResult &r) {
            return static_cast<double>(host.ticks) /
                   static_cast<double>(r.ticks);
        };
        std::printf("%-18s %9llu | %9.3f %9.3f %9.3f | %5.1f%%\n",
                    row.spec->name,
                    (unsigned long long)row.spec->vertices, 1.0,
                    speed(pim), speed(la), 100.0 * la.pimFraction());
    }
    std::printf("\n(speedups normalized to Host-Only.)\n");

    if (backend_sweep) {
        std::printf("\nLocality-Aware across memory backends "
                    "(speedup vs Host-Only on hmc)\n");
        std::printf("%-18s | %9s %9s %9s\n", "graph", "hmc", "ddr",
                    "ideal");
        for (const Row &row : rows) {
            if (!peibench::allOk({row.host, row.la}))
                continue;
            const auto &host = result(row.host);
            const auto speed = [&](const peibench::RunResult &r) {
                return static_cast<double>(host.ticks) /
                       static_cast<double>(r.ticks);
            };
            std::printf("%-18s | %9.3f", row.spec->name,
                        speed(result(row.la)));
            for (RunHandle h : row.la_alt) {
                if (result(h).ok())
                    std::printf(" %9.3f", speed(result(h)));
                else
                    std::printf(" %9s", "-");
            }
            std::printf("\n");
        }
        std::printf("(ddr has no PIM units: Locality-Aware degrades "
                    "to host-side execution.)\n");
    }
    return peibench::benchFinish();
}
