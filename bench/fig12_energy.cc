/**
 * @file
 * Figure 12: memory-hierarchy energy of Host-Only, PIM-Only, and
 * Locality-Aware, normalized to Ideal-Host, with per-component
 * breakdown (caches, DRAM, TSV, off-chip links, PCUs, PMU).
 *
 * Paper: Locality-Aware consumes the least energy at every input
 * size; PIM-Only on small inputs inflates off-chip link energy by
 * 36% and DRAM energy by 116%; memory-side PCUs add only ~1.4% of
 * HMC energy.
 */

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig12Energy()
{
    const std::vector<WorkloadKind> apps = {
        WorkloadKind::ATF, WorkloadKind::HG, WorkloadKind::SVM};
    const InputSize sizes[] = {InputSize::Small, InputSize::Large};
    const ExecMode modes[] = {ExecMode::IdealHost, ExecMode::HostOnly,
                              ExecMode::PimOnly, ExecMode::LocalityAware};

    std::map<std::pair<int, int>, std::vector<RunHandle>> cells;
    for (InputSize size : sizes) {
        for (WorkloadKind kind : apps) {
            auto &cell = cells[{(int)size, (int)kind}];
            for (ExecMode mode : modes)
                cell.push_back(submit(kind, size, mode));
        }
    }
    return [apps, cells, sizes] {
        printHeader(
            "Figure 12", "Normalized memory-hierarchy energy "
                         "(ATF/HG/SVM)",
            "Locality-Aware lowest everywhere; PIM-Only small: +36% link, "
            "+116% DRAM energy; memory PCUs ~1.4% of HMC energy");

        for (InputSize size : sizes) {
            std::printf("\n--- (%s inputs; energy normalized to Ideal-Host "
                        "total) ---\n",
                        sizeName(size));
            std::printf("%-5s %-11s | %7s %7s %7s %7s %7s %7s | %7s\n",
                        "app", "config", "caches", "dram", "tsv", "link",
                        "pcu", "pmu", "total");
            std::vector<double> gm_host, gm_pim, gm_la;
            for (WorkloadKind kind : apps) {
                const auto &cell = cells.at({(int)size, (int)kind});
                if (!allOk({cell[0], cell[1], cell[2], cell[3]}))
                    continue;
                const auto &ideal = result(cell[0]);
                const double base = ideal.energy.total();
                const auto row = [&](const char *name,
                                     const RunResult &r) {
                    const EnergyBreakdown &e = r.energy;
                    std::printf(
                        "%-5s %-11s | %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f "
                        "| %7.3f\n",
                        kindName(kind), name, e.caches / base,
                        e.dram / base, e.tsv / base, e.offchip / base,
                        e.pcu / base, e.pmu / base, e.total() / base);
                    return e.total() / base;
                };
                row("ideal", ideal);
                gm_host.push_back(row("host-only", result(cell[1])));
                gm_pim.push_back(row("pim-only", result(cell[2])));
                gm_la.push_back(row("loc-aware", result(cell[3])));
            }
            if (!gm_host.empty()) {
                std::printf("GM    %-11s | %55s %7.3f\n", "host-only", "",
                            geomean(gm_host));
                std::printf("GM    %-11s | %55s %7.3f\n", "pim-only", "",
                            geomean(gm_pim));
                std::printf("GM    %-11s | %55s %7.3f\n", "loc-aware", "",
                            geomean(gm_la));
            }
        }
    };
}
