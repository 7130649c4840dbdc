/**
 * @file
 * Figure 7: total off-chip transfer of PIM-Only, normalized to
 * host-side execution, for small and large inputs.
 *
 * Paper: PIM-Only greatly reduces off-chip traffic for large inputs
 * (computation stays in memory, only results cross the links), but
 * *increases* it dramatically for small, cache-resident inputs — up
 * to 502x for SC.
 *
 * Host-Only's traffic equals Ideal-Host's (PEIs travel the same
 * cache path either way), so Host-Only serves as the normalization
 * base, halving the bench's run count.
 */

#include <cstdio>
#include <map>
#include <utility>

#include "bench/harness.hh"

using namespace peibench;

Renderer
fig07OffchipTraffic()
{
    const InputSize sizes[] = {InputSize::Small, InputSize::Large};
    std::map<std::pair<int, int>, std::pair<RunHandle, RunHandle>> cells;
    for (InputSize size : sizes) {
        for (WorkloadKind kind : allWorkloadKinds()) {
            cells[{(int)size, (int)kind}] = {
                submit(kind, size, ExecMode::HostOnly),
                submit(kind, size, ExecMode::PimOnly)};
        }
    }
    return [cells, sizes] {
        printHeader(
            "Figure 7", "Normalized amount of off-chip transfer",
            "large: PIM-Only well below 1.0; small: far above 1.0 "
            "(up to 502x in SC)");

        for (InputSize size : sizes) {
            std::printf("\n--- (%s inputs, bytes normalized to host-side "
                        "execution) ---\n",
                        sizeName(size));
            std::printf("%-5s %12s | %10s | %10s %10s\n", "app", "host(MB)",
                        "pim-only", "pim req/res MB", "");
            for (WorkloadKind kind : allWorkloadKinds()) {
                const auto &cell = cells.at({(int)size, (int)kind});
                if (!allOk({cell.first, cell.second}))
                    continue;
                const auto &host = result(cell.first);
                const auto &pim = result(cell.second);
                std::printf("%-5s %12.2f | %10.2f | %8.1f %8.1f\n",
                            kindName(kind),
                            static_cast<double>(host.offchipBytes()) / 1e6,
                            static_cast<double>(pim.offchipBytes()) /
                                static_cast<double>(host.offchipBytes()),
                            static_cast<double>(pim.offchip_req_bytes) / 1e6,
                            static_cast<double>(pim.offchip_res_bytes) / 1e6);
            }
        }
    };
}
