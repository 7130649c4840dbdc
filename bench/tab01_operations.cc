/**
 * @file
 * Table 1: summary of supported PIM operations — regenerated from
 * the PEI op table the simulator actually executes.
 */

#include <cstdio>

#include "bench/harness.hh"
#include "pim/pei_op.hh"

using namespace peibench;

Renderer
tab01Operations()
{
    return [] {
        printHeader(
            "Table 1", "Summary of Supported PIM Operations",
            "seven operations, R/W flags, input 0-64 B, output 0-16 B");

        std::printf("%-12s %2s %2s %6s %7s  %s\n", "Operation", "R", "W",
                    "Input", "Output", "Applications");
        const char *apps[] = {
            "ATF", "BFS, SP, WCC", "PR", "HJ", "HG, RP", "SC", "SVM",
        };
        static_assert(sizeof(apps) / sizeof(apps[0]) ==
                      static_cast<std::size_t>(PeiOpcode::NumOpcodes));
        for (unsigned i = 0;
             i < static_cast<unsigned>(PeiOpcode::NumOpcodes); ++i) {
            const PeiOpInfo &info = peiOpInfo(static_cast<PeiOpcode>(i));
            std::printf("%-12s %2s %2s %5uB %6uB  %s\n", info.name,
                        info.reads ? "O" : "X", info.writes ? "O" : "X",
                        info.input_bytes, info.output_bytes, apps[i]);
        }
        std::printf("\nEvery operation obeys the single-cache-block "
                    "restriction (64 B) and is executable on\n"
                    "both host-side and memory-side PCUs.\n");
    };
}
