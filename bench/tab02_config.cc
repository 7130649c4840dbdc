/**
 * @file
 * Table 2: baseline simulation configuration — printed from the
 * SystemConfig structs the simulator is actually built from, for
 * both the paper-faithful baseline and the scaled bench config.
 */

#include <cstdio>

#include "bench/harness.hh"

using namespace peibench;

namespace
{

void
show(const char *title, const SystemConfig &cfg)
{
    std::printf("--- %s ---\n", title);
    std::printf("Cores            : %u out-of-order, 4 GHz, window %u, "
                "%u-entry TLB\n",
                cfg.cores, cfg.core.window, cfg.core.tlb_entries);
    std::printf("L1 D-cache       : private, %llu KB, %u-way, 64 B "
                "blocks, %u MSHRs\n",
                (unsigned long long)cfg.cache.l1_bytes >> 10,
                cfg.cache.l1_ways, cfg.cache.core_mshrs);
    std::printf("L2 cache         : private, %llu KB, %u-way\n",
                (unsigned long long)cfg.cache.l2_bytes >> 10,
                cfg.cache.l2_ways);
    std::printf("L3 cache         : shared, %llu MB, %u-way, %u MSHRs\n",
                (unsigned long long)cfg.cache.l3_bytes >> 20,
                cfg.cache.l3_ways, cfg.cache.l3_mshrs);
    std::printf("Main memory      : %u HMC(s), %u vaults/cube, "
                "%u banks/vault\n",
                cfg.hmc.num_cubes, cfg.hmc.vaults_per_cube,
                cfg.hmc.dram.banks_per_vault);
    std::printf("DRAM timing      : FR-FCFS, tCL=tRCD=tRP=%.2f ns\n",
                cfg.hmc.dram.tCL_ns);
    std::printf("Vertical links   : %.0f GB/s per vault (64 TSVs x "
                "2 Gb/s)\n",
                cfg.hmc.dram.tsv_gbps);
    std::printf("Off-chip links   : %.1f GB/s per direction, "
                "daisy-chained\n",
                cfg.hmc.link.gbps);
    std::printf("Host PCUs        : %u (one per core), %u-entry operand "
                "buffer, width %u, 4 GHz\n",
                cfg.cores, cfg.pim.pcu.operand_buffer_entries,
                cfg.pim.pcu.issue_width);
    std::printf("Memory PCUs      : %u (one per vault), same buffer, "
                "2 GHz\n",
                cfg.hmc.num_cubes * cfg.hmc.vaults_per_cube);
    std::printf("PIM directory    : %u entries, %llu-cycle access\n",
                cfg.pim.directory_entries,
                (unsigned long long)cfg.pim.directory_latency);
    // Off-default only: the unbatched table stays byte-identical.
    if (cfg.pim.pei_batch > 1) {
        std::printf("PEI batching     : per-vault windows, up to %u "
                    "PEIs/train, %llu-tick flush timeout\n",
                    cfg.pim.pei_batch,
                    (unsigned long long)batch_window_ticks);
    }
    std::printf("Locality monitor : mirrors L3 tag array (%llu sets x "
                "%u ways), %u-bit partial tags, %llu-cycle access\n\n",
                (unsigned long long)(cfg.cache.l3_bytes / 64 /
                                     cfg.cache.l3_ways),
                cfg.cache.l3_ways, cfg.pim.monitor_partial_tag_bits,
                (unsigned long long)cfg.pim.monitor_latency);
}

} // namespace

Renderer
tab02Config()
{
    return [] {
        printHeader("Table 2", "Baseline Simulation Configuration",
                              "16 OoO cores, 32 KB/256 KB/16 MB caches, "
                              "8 HMCs (32 GB), 80 GB/s full-duplex chain");

        // The knob flags preview the table of a swept configuration.
        const KnobSet &knobs = sweepOptions().knobs;
        SystemConfig paper = SystemConfig::paperBaseline();
        knobs.applyTo(paper);
        show("paperBaseline() — Table 2 as published", paper);
        SystemConfig scaled = SystemConfig::scaled();
        knobs.applyTo(scaled);
        show("scaled() — bench configuration (1/16 caches, 1 cube, "
             "bandwidth ratio preserved)",
             scaled);
    };
}
