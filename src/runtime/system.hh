/**
 * @file
 * The System facade: wires every subsystem (cores, TLBs, caches,
 * the selected main-memory backend, PMU, PCUs) into one simulated
 * machine.
 *
 * This is the primary entry point of the library together with
 * Runtime/Ctx (runtime/context.hh):
 *
 * @code
 *   pei::System sys(pei::SystemConfig::scaled(pei::ExecMode::LocalityAware));
 *   pei::Runtime rt(sys);
 *   pei::Addr counters = rt.allocArray<std::uint64_t>(1 << 20);
 *   rt.spawnThreads(16, [&](pei::Ctx &ctx, unsigned tid, unsigned n)
 *                       -> pei::Task {
 *       for (std::uint64_t i = tid; i < (1 << 20); i += n)
 *           co_await ctx.peiAsync(pei::PeiOpcode::Inc64,
 *                                 counters + 8 * i, nullptr, 0);
 *       co_await ctx.drain();
 *   });
 *   rt.run();
 * @endcode
 */

#ifndef PEISIM_RUNTIME_SYSTEM_HH
#define PEISIM_RUNTIME_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "cpu/core.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "mem/backend_config.hh"
#include "mem/vmem.hh"
#include "pim/pmu.hh"
#include "sim/event_queue.hh"

namespace pei
{

/** Whole-machine configuration. */
struct SystemConfig
{
    unsigned cores = 16;
    std::uint64_t phys_bytes = 32ULL << 30;

    /**
     * Main-memory backend: a key of the memory-backend factory
     * registry ("hmc" | "ddr" | "ideal"; mem/backend.hh).  Only the
     * selected backend's config below is consulted.
     */
    std::string mem_backend = "hmc";

    CoreConfig core;
    CacheConfig cache;
    HmcConfig hmc;
    DdrConfig ddr;
    IdealMemConfig ideal_mem;
    PimConfig pim;

    /** The paper's Table 2 baseline (16 cores, 16 MB L3, 8 HMCs). */
    static SystemConfig paperBaseline(
        ExecMode mode = ExecMode::LocalityAware);

    /**
     * A proportionally scaled configuration for fast benchmarking:
     * same structure, smaller caches (1 MB L3) and one HMC, so every
     * experiment preserves its working-set/cache ratio while running
     * in seconds.
     */
    static SystemConfig scaled(ExecMode mode = ExecMode::LocalityAware);

    /** Field-wise equality: equal configs build identical machines. */
    bool operator==(const SystemConfig &) const = default;
};

/** A complete simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /** The one event queue every component schedules on. */
    EventQueue &eventQueue() { return eq; }
    VirtualMemory &memory() { return vm; }
    const AddrMap &addrMap() const { return mem_->addrMap(); }
    MemoryBackend &mem() { return *mem_; }
    CacheHierarchy &caches() { return *hierarchy; }
    Pmu &pmu() { return *pmu_; }
    Core &core(unsigned i) { return *cores[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores.size()); }
    StatRegistry &stats() { return stats_; }
    const SystemConfig &config() const { return cfg; }

    /** Current simulated time. */
    Tick now() const { return eq.now(); }

  private:
    SystemConfig cfg;
    StatRegistry stats_;
    EventQueue eq;
    VirtualMemory vm;
    std::unique_ptr<MemoryBackend> mem_;
    std::unique_ptr<CacheHierarchy> hierarchy;
    std::vector<std::unique_ptr<Core>> cores;
    std::unique_ptr<Pmu> pmu_;
};

} // namespace pei

#endif // PEISIM_RUNTIME_SYSTEM_HH
