/**
 * @file
 * peibench: every table and figure, in README order, from one sweep
 * that simulates each distinct run once (see harness.hh).
 */

#include "bench/harness.hh"

using namespace peibench;

Renderer tab01Operations();
Renderer tab02Config();
Renderer fig02PagerankPotential();
Renderer fig06Speedup();
Renderer fig07OffchipTraffic();
Renderer fig08InputSweep();
Renderer fig09Multiprog();
Renderer fig10BalancedDispatch();
Renderer fig11PcuDesign();
Renderer tab76PmuOverhead();
Renderer fig12Energy();
Renderer fig14Scaleout();
Renderer fig15Batching();

int
main(int argc, char **argv)
{
    return benchMain(
        argc, argv,
        {{"tab01_operations", tab01Operations},
         {"tab02_config", tab02Config},
         {"fig02_pagerank_potential", fig02PagerankPotential},
         {"fig06_speedup", fig06Speedup},
         {"fig07_offchip_traffic", fig07OffchipTraffic},
         {"fig08_input_sweep", fig08InputSweep},
         {"fig09_multiprog", fig09Multiprog},
         {"fig10_balanced_dispatch", fig10BalancedDispatch},
         {"fig11_pcu_design", fig11PcuDesign},
         {"tab76_pmu_overhead", tab76PmuOverhead},
         {"fig12_energy", fig12Energy},
         {"fig14_scaleout", fig14Scaleout, "--scaleout-json",
          "BENCH_scaleout.json"},
         {"fig15_batching", fig15Batching, "--batching-json",
          "BENCH_batching.json"}});
}
