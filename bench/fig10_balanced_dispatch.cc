/**
 * @file
 * Figure 10: balanced dispatch (§7.4) on the read-dominated SC and
 * SVM workloads with large inputs.
 *
 * Paper: PIM-Only beats Host-Only on SC/SVM large *despite* similar
 * total traffic because it balances request vs response link load;
 * balanced dispatch (forcing host-side execution when that evens
 * the two links) improves Locality-Aware by up to 25%.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig10BalancedDispatch()
{
    struct Row
    {
        WorkloadKind kind;
        RunHandle host, pim, la, bal;
    };
    std::vector<Row> rows;
    for (WorkloadKind kind : {WorkloadKind::SC, WorkloadKind::SVM}) {
        rows.push_back(
            {kind,
             submit(kind, InputSize::Large, ExecMode::HostOnly),
             submit(kind, InputSize::Large, ExecMode::PimOnly),
             submit(kind, InputSize::Large, ExecMode::LocalityAware),
             submit(kind, InputSize::Large, ExecMode::LocalityAware,
                    [](SystemConfig &cfg) {
                        cfg.pim.balanced_dispatch = true;
                    },
                    std::string(kindName(kind)) +
                        "/large/Locality-Aware/balanced")});
    }
    return [rows] {
        printHeader(
            "Figure 10", "Balanced dispatch on SC and SVM (large inputs)",
            "up to +25% over plain Locality-Aware by balancing "
            "request/response link load");

        std::printf("%-5s %10s %10s %10s %12s | %13s\n", "app", "host-only",
                    "pim-only", "loc-aware", "la+balanced", "req/res MB");
        for (const Row &row : rows) {
            if (!allOk({row.host, row.pim, row.la, row.bal}))
                continue;
            const auto &host = result(row.host);
            const auto &pim = result(row.pim);
            const auto &la = result(row.la);
            const auto &bal = result(row.bal);
            const auto speed = [&](const RunResult &r) {
                return static_cast<double>(host.ticks) /
                       static_cast<double>(r.ticks);
            };
            std::printf("%-5s %10.3f %10.3f %10.3f %12.3f | %5.0f/%-5.0f\n",
                        kindName(row.kind), 1.0, speed(pim), speed(la),
                        speed(bal),
                        static_cast<double>(bal.offchip_req_bytes) / 1e6,
                        static_cast<double>(bal.offchip_res_bytes) / 1e6);
        }
        std::printf("\n(speedups vs Host-Only; last column: balanced-"
                    "dispatch off-chip bytes by direction.)\n");
    };
}
