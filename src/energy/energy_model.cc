#include "energy_model.hh"

namespace pei
{

EnergyBreakdown
computeEnergy(const StatRegistry &stats, const EnergyParams &p)
{
    EnergyBreakdown e;

    const double l1 = static_cast<double>(stats.get("cache.l1_accesses"));
    const double l2 = static_cast<double>(stats.get("cache.l2_accesses"));
    const double l3 = static_cast<double>(stats.get("cache.l3_accesses"));
    const double xbar = static_cast<double>(stats.get("cache.xbar_msgs"));
    e.caches = l1 * p.l1_access_pj + l2 * p.l2_access_pj +
               l3 * p.l3_access_pj + xbar * p.xbar_msg_pj;

    const auto snap = stats.snapshot();
    double acts = 0.0, reads = 0.0, writes = 0.0, tsv_blocks = 0.0;
    double host_ops = 0.0, mem_ops = 0.0;
    for (const auto &[name, value] : snap) {
        const auto v = static_cast<double>(value);
        // DRAM arrays live behind "vaultN." (hmc backend) or
        // "chanN." (ddr backend) stat prefixes; only vaults move
        // data over TSVs, one block per read or write.
        const bool vault = name.rfind("vault", 0) == 0;
        if (vault || name.rfind("chan", 0) == 0) {
            if (name.find(".activates") != std::string::npos) {
                acts += v;
            } else if (name.find(".reads") != std::string::npos) {
                reads += v;
                if (vault)
                    tsv_blocks += v;
            } else if (name.find(".writes") != std::string::npos) {
                writes += v;
                if (vault)
                    tsv_blocks += v;
            }
        } else if (name.rfind("host_pcu", 0) == 0 &&
                   name.find(".executed") != std::string::npos) {
            host_ops += v;
        } else if (name.rfind("mem_pcu", 0) == 0 &&
                   name.find(".executed") != std::string::npos) {
            mem_ops += v;
        }
    }
    e.dram = acts * p.dram_activate_pj +
             (reads + writes) * p.dram_access_pj;
    e.tsv = tsv_blocks * p.tsv_per_block_pj;

    // Only the hmc backend has packetized off-chip links, the chain's
    // request link0 and response link1; the other backends fold bus
    // energy into their per-access costs.
    double flits = 0.0;
    for (const char *link : {"link0.flits", "link1.flits"}) {
        if (stats.has(link))
            flits += static_cast<double>(stats.get(link));
    }
    e.offchip = flits * p.link_flit_pj;

    e.pcu = host_ops * p.host_pcu_op_pj + mem_ops * p.mem_pcu_op_pj;

    // One directory array access per acquire; every PEI lookup reads
    // the monitor array exactly once (hit, miss, and ignored hit
    // alike).
    const double dir_ops = static_cast<double>(stats.get("pim_dir.acquires"));
    const double mon_ops = static_cast<double>(stats.get("loc_mon.lookups"));
    e.pmu = dir_ops * p.pim_dir_access_pj + mon_ops * p.loc_mon_access_pj;

    return e;
}

} // namespace pei
