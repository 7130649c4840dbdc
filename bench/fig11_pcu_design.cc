/**
 * @file
 * Figure 11: PCU design-space exploration under Locality-Aware —
 * (a) operand-buffer size sweep, (b) computation-logic issue-width
 * sweep.
 *
 * Paper: four operand-buffer entries capture the available PEI
 * memory-level parallelism (>30% over a single entry; no gain
 * beyond four); issue width has negligible effect because PEI
 * latency is dominated by memory access.
 */

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

namespace
{

const std::vector<WorkloadKind> apps = {WorkloadKind::ATF,
                                        WorkloadKind::HG,
                                        WorkloadKind::SVM};

/// Handles of the three app runs per (entries, width) point.
using Points =
    std::map<std::pair<unsigned, unsigned>, std::vector<RunHandle>>;

/** Average ticks across the three apps; 0 when any run is not ok. */
double
avgTicks(const Points &points, unsigned entries, unsigned width)
{
    double sum = 0.0;
    for (RunHandle h : points.at({entries, width})) {
        if (!result(h).ok())
            return 0.0;
        sum += static_cast<double>(result(h).ticks);
    }
    return sum / static_cast<double>(apps.size());
}

} // namespace

Renderer
fig11PcuDesign()
{
    const std::pair<unsigned, unsigned> grid[] = {
        {1, 1}, {2, 1}, {4, 1}, {8, 1}, {16, 1}, {4, 2}, {4, 4}};
    Points points;
    for (const auto &point : grid) {
        const unsigned entries = point.first, width = point.second;
        for (WorkloadKind kind : apps) {
            points[point].push_back(submit(
                kind, InputSize::Medium, ExecMode::LocalityAware,
                [entries, width](SystemConfig &cfg) {
                    cfg.pim.pcu.operand_buffer_entries = entries;
                    cfg.pim.pcu.issue_width = width;
                },
                std::string(kindName(kind)) + "/medium/Locality-Aware/buf" +
                    std::to_string(entries) + "/w" +
                    std::to_string(width)));
        }
    }
    return [points] {
        printHeader(
            "Figure 11", "PCU design space (Locality-Aware, medium inputs; "
                         "ATF/HG/SVM average)",
            "(a) 4-entry operand buffer saturates PEI MLP (>30% over 1 "
            "entry); (b) issue width does not matter");

        const double base = avgTicks(points, 4, 1);
        std::printf("\n(a) operand buffer size (issue width 1), speedup vs "
                    "default 4 entries\n");
        for (unsigned entries : {1u, 2u, 4u, 8u, 16u}) {
            const double t = avgTicks(points, entries, 1);
            if (base > 0.0 && t > 0.0)
                std::printf("  %2u entries : %6.3f\n", entries, base / t);
        }

        std::printf("\n(b) computation-logic issue width (4-entry buffer), "
                    "speedup vs width 1\n");
        for (unsigned width : {1u, 2u, 4u}) {
            const double t = avgTicks(points, 4, width);
            if (base > 0.0 && t > 0.0)
                std::printf("  width %u    : %6.3f\n", width, base / t);
        }
    };
}
