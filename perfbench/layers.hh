/**
 * @file
 * Isolated host-cost timings of the simulator's hot layers.  Each
 * one builds one layer's public class on its own (EventQueue, Tlb,
 * CacheHierarchy, PimDirectory, LocalityMonitor, Vault, DdrChannel),
 * feeds it a seeded stream sized from the workload run, and returns
 * host nanoseconds per call.  Multiplied by the run's call counts
 * these give each layer's estimated share of run time.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>

#include "runtime/system.hh"
#include "spans.hh"

namespace perfbench
{

/** Properties of the workload run the streams are sized from. */
struct LayerInputs
{
    std::uint64_t footprint_bytes = 0; ///< simulated bytes allocated
    double store_share = 0.0;       ///< stores / (loads + stores)
    double mem_write_share = 0.0;   ///< writes / accesses at the DRAM
    bool writer_peis = true;        ///< PEIs lock their target as writers
    std::uint64_t pending_events = 0; ///< event-queue depth (p50)
    std::uint64_t ddr_queue_depth = 0; ///< channel queue depth (p50)
};

/** Host nanoseconds per call of each layer. */
struct LayerCosts
{
    double queue_ns_per_event = 0.0;
    double tlb_ns_per_access = 0.0;
    double cache_access_ns = 0.0;
    double dir_ns_per_op = 0.0;
    double monitor_ns_per_lookup = 0.0;
    double vault_ns_per_access = 0.0;
    double ddr_ns_per_access = 0.0;
};

/** Time every layer, each inside its own span of @p spans. */
LayerCosts measureLayers(const pei::SystemConfig &cfg,
                         const LayerInputs &in, std::uint64_t seed,
                         SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
