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
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig08InputSweep()
{
    struct Row
    {
        const NamedGraphSpec *spec;
        RunHandle host, pim, la;
    };
    std::vector<Row> rows;
    for (const NamedGraphSpec &spec : figureGraphs()) {
        rows.push_back({&spec, submitGraph(spec, ExecMode::HostOnly),
                        submitGraph(spec, ExecMode::PimOnly),
                        submitGraph(spec, ExecMode::LocalityAware)});
    }
    return [rows] {
        printHeader(
            "Figure 8", "PageRank with different graph sizes",
            "Locality-Aware PIM% grows 0.3% -> 87% with graph size and "
            "its speedup tracks max(Host-Only, PIM-Only)");

        std::printf("%-18s %9s | %9s %9s %9s | %6s\n", "graph", "vertices",
                    "host-only", "pim-only", "loc-aware", "PIM%");
        for (const Row &row : rows) {
            if (!allOk({row.host, row.pim, row.la}))
                continue;
            const auto &host = result(row.host);
            const auto &pim = result(row.pim);
            const auto &la = result(row.la);
            const auto speed = [&](const RunResult &r) {
                return static_cast<double>(host.ticks) /
                       static_cast<double>(r.ticks);
            };
            std::printf("%-18s %9llu | %9.3f %9.3f %9.3f | %5.1f%%\n",
                        row.spec->name,
                        (unsigned long long)row.spec->vertices, 1.0,
                        speed(pim), speed(la), 100.0 * la.pimFraction());
        }
        std::printf("\n(speedups normalized to Host-Only.)\n");
    };
}
