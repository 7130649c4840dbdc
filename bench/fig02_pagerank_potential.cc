/**
 * @file
 * Figure 2: performance improvement from an in-memory atomic
 * addition used for PageRank, across nine real-world graphs
 * (synthetic stand-ins at 1/32 scale, ascending vertex count).
 *
 * Paper: memory-side addition wins up to +53% on the biggest graphs
 * but loses up to -20% when the graph fits in on-chip caches — the
 * observation that motivates locality-aware execution.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig02PagerankPotential()
{
    struct Row
    {
        const NamedGraphSpec *spec;
        RunHandle host, pim;
    };
    std::vector<Row> rows;
    for (const NamedGraphSpec &spec : figureGraphs()) {
        rows.push_back({&spec, submitGraph(spec, ExecMode::IdealHost),
                        submitGraph(spec, ExecMode::PimOnly)});
    }
    return [rows] {
        printHeader(
            "Figure 2",
            "PageRank speedup from memory-side atomic addition, 9 graphs",
            "up to +53% on large graphs; up to -20% on cache-resident ones "
            "(e.g. p2p-Gnutella31, 50x DRAM accesses)");

        std::printf("%-18s %9s %10s | %8s %8s %8s | %9s\n", "graph",
                    "vertices", "edges", "host", "pim", "speedup",
                    "dram_x");
        for (const Row &row : rows) {
            if (!allOk({row.host, row.pim}))
                continue;
            const auto &host = result(row.host);
            const auto &pim = result(row.pim);
            const double speedup = static_cast<double>(host.ticks) /
                                   static_cast<double>(pim.ticks);
            const double dram_ratio =
                static_cast<double>(pim.dramAccesses()) /
                static_cast<double>(host.dramAccesses());
            std::printf(
                "%-18s %9llu %10llu | %8llu %8llu %7.2fx | %8.1fx\n",
                row.spec->name, (unsigned long long)row.spec->vertices,
                (unsigned long long)row.spec->edges,
                (unsigned long long)(host.ticks / 1000),
                (unsigned long long)(pim.ticks / 1000), speedup, dram_ratio);
        }
        std::printf("\n(host/pim columns in kiloticks; dram_x = PIM DRAM "
                    "accesses over host DRAM accesses —\n"
                    "the paper reports 50x for p2p-Gnutella31.)\n");
    };
}
