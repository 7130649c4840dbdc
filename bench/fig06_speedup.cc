/**
 * @file
 * Figure 6: speedup comparison of Host-Only, PIM-Only, and
 * Locality-Aware (normalized to Ideal-Host) for all ten workloads
 * under small/medium/large input sets.
 *
 * Paper: for large inputs PIM-Only gains ~44% (GM) over Ideal-Host;
 * for small inputs it *loses* ~20% while Host-Only matches
 * Ideal-Host; Locality-Aware tracks the better of the two everywhere
 * and beats both on medium graph inputs (~12%/11% over
 * Host-/PIM-Only) by splitting PEIs between host and memory.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig06Speedup()
{
    const InputSize sizes[] = {InputSize::Small, InputSize::Medium,
                               InputSize::Large};
    const ExecMode modes[] = {ExecMode::IdealHost, ExecMode::HostOnly,
                              ExecMode::PimOnly, ExecMode::LocalityAware};
    std::map<std::pair<int, int>, std::vector<RunHandle>> cells;
    for (InputSize size : sizes) {
        for (WorkloadKind kind : allWorkloadKinds()) {
            auto &cell = cells[{(int)size, (int)kind}];
            for (ExecMode mode : modes)
                cell.push_back(submit(kind, size, mode));
        }
    }
    return [cells, sizes] {
        printHeader(
            "Figure 6", "Speedup under different input sizes (vs Ideal-Host)",
            "large: PIM-Only +44% GM, Locality-Aware +47% over Host-Only; "
            "small: PIM-Only -20%, Locality-Aware ~ Host-Only; medium "
            "graphs: Locality-Aware beats both");

        for (InputSize size : sizes) {
            std::printf("\n--- (%s inputs) ---\n", sizeName(size));
            std::printf("%-5s %10s %10s %10s %10s | %6s\n", "app",
                        "ideal", "host-only", "pim-only", "loc-aware",
                        "PIM%");
            std::vector<double> gm_host, gm_pim, gm_la;
            for (WorkloadKind kind : allWorkloadKinds()) {
                const auto &cell = cells.at({(int)size, (int)kind});
                if (!allOk({cell[0], cell[1], cell[2], cell[3]}))
                    continue;
                const auto &ideal = result(cell[0]);
                const auto &host = result(cell[1]);
                const auto &pim = result(cell[2]);
                const auto &la = result(cell[3]);

                const auto speed = [&](const RunResult &r) {
                    return static_cast<double>(ideal.ticks) /
                           static_cast<double>(r.ticks);
                };
                gm_host.push_back(speed(host));
                gm_pim.push_back(speed(pim));
                gm_la.push_back(speed(la));
                std::printf("%-5s %10.3f %10.3f %10.3f %10.3f | %5.1f%%\n",
                            kindName(kind), 1.0, speed(host), speed(pim),
                            speed(la), 100.0 * la.pimFraction());
            }
            if (!gm_host.empty()) {
                std::printf("%-5s %10.3f %10.3f %10.3f %10.3f |\n", "GM",
                            1.0, geomean(gm_host), geomean(gm_pim),
                            geomean(gm_la));
            }
        }
        std::printf("\n(PIM%% = fraction of PEIs Locality-Aware offloads "
                    "to memory-side PCUs; paper: 79%% for\nlarge inputs, "
                    "14%% for small inputs.)\n");
    };
}
