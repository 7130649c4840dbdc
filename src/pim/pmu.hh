/**
 * @file
 * PEI Management Unit (paper §4.3): the shared structure near the
 * last-level cache that coordinates every PEI in the system.
 *
 * Responsibilities:
 *  1. atomicity management via the PIM directory (plus pfence);
 *  2. cache-coherence management for offloaded PEIs
 *     (back-invalidation for writers, back-writeback for readers);
 *  3. data-locality profiling via the locality monitor, deciding
 *     host-side vs. memory-side execution per PEI;
 *  4. (§7.4) optional balanced dispatch using the memory backend's
 *     EMA request/response flit counters.
 *
 * The PMU also owns all PCUs: one host-side PCU per core and — when
 * the memory backend reports PIM capability — one memory-side PCU
 * per PIM unit (attached to the backend as PIM packet handlers).  On
 * a non-PIM backend every PEI degrades to host-side execution.
 */

#ifndef PEISIM_PIM_PMU_HH
#define PEISIM_PIM_PMU_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "mem/backend.hh"
#include "mem/vmem.hh"
#include "pim/locality_monitor.hh"
#include "pim/pcu.hh"
#include "pim/pei_op.hh"
#include "pim/pim_directory.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** The four system configurations evaluated in §7. */
enum class ExecMode
{
    HostOnly,      ///< all PEIs on host-side PCUs (monitor disabled)
    PimOnly,       ///< all PEIs on memory-side PCUs (monitor disabled)
    IdealHost,     ///< PEIs as normal instructions; ideal, free directory
    LocalityAware, ///< locality-monitor-driven placement (the proposal)
};

/** Returns the display name of an execution mode. */
const char *execModeName(ExecMode mode);

/** PEI subsystem configuration (defaults = paper §6.1). */
struct PimConfig
{
    ExecMode mode = ExecMode::LocalityAware;

    unsigned directory_entries = 2048; ///< 0 = ideal directory
    Ticks directory_latency = 2;
    Ticks monitor_latency = 3;
    bool monitor_ignore_flag = true;
    unsigned monitor_partial_tag_bits = 10;
    /** 0 = mirror the L3 tag-array organization (paper default). */
    unsigned monitor_sets = 0;
    unsigned monitor_ways = 0;

    bool balanced_dispatch = false; ///< §7.4 extension

    Ticks pmu_xbar_latency = 8;     ///< core→PMU crossbar hop

    /**
     * PMU batching window (`--pei-batch`): memory-side PEIs bound for
     * the same vault coalesce into trains of up to this many ops —
     * one merged coherence action (each distinct target block cleaned
     * once) and one packet train through the interconnect per flush.  1
     * (the default) bypasses the window entirely and is
     * byte-identical to per-op dispatch; only meaningful on
     * PIM-capable backends.  Capped at 64.
     */
    unsigned pei_batch = 1;

    PcuConfig pcu;

    bool operator==(const PimConfig &) const = default;
};

/** Max ticks a non-full batching window waits before flushing (64 ns). */
constexpr Ticks batch_window_ticks = 256;

/** The PEI management unit plus all PCUs. */
class Pmu
{
  public:
    using Callback = Continuation;
    /**
     * PEI-retirement callback.  The 16-byte inline budget fits both
     * issuer closures: a blocking PEI's `[this, h]` resumption and an
     * async PEI's `{Ctx *, OnComplete}` completion forwarder.
     */
    using DoneFn = InlineFunction<void(const PimPacket &), 16>;

    Pmu(EventQueue &eq, const PimConfig &cfg, unsigned cores,
        unsigned l3_sets, unsigned l3_ways, CacheHierarchy &hierarchy,
        MemoryBackend &mem, VirtualMemory &vm, StatRegistry &stats);

    /**
     * Execute one PEI issued by @p core targeting physical address
     * @p paddr.  @p done receives the completed packet (output
     * operands filled in) when the PEI retires.  @p issue_latency
     * defers the pipeline start (e.g. a TLB-miss penalty at the
     * issuing core) while still registering the PEI for pfence
     * tracking immediately, preserving issue-order fence semantics.
     */
    void executePei(unsigned core, PeiOpcode op, Addr paddr,
                    const void *input, unsigned input_size, DoneFn done,
                    Ticks issue_latency = 0);

    /** pfence: @p done fires once all earlier writer PEIs complete. */
    void pfence(Callback done);

    PimDirectory &directory() { return dir; }
    LocalityMonitor &monitor() { return mon; }

    Pcu &hostPcu(unsigned core) { return *host_pcus[core]; }

    /** Memory-side PCU buffer of PIM unit @p unit (probe hook). */
    Pcu &memPcu(unsigned unit) { return mem_pcus[unit]->pcu(); }
    unsigned numHostPcus() const
    {
        return static_cast<unsigned>(host_pcus.size());
    }
    unsigned numMemPcus() const
    {
        return static_cast<unsigned>(mem_pcus.size());
    }

    std::uint64_t peisHost() const { return stat_peis_host.value(); }
    std::uint64_t peisMem() const { return stat_peis_mem.value(); }

    /**
     * Call @p fn with the target block of every memory-side *writer*
     * PEI between the end of its back-invalidation and its
     * retirement, in offload order: no cache level may hold a copy
     * of these (probe hook; one call per PEI).
     */
    template <typename Fn>
    void
    forEachMemWriterBlock(Fn &&fn)
    {
        forEachInflight(mem_writers, fn);
    }

    /**
     * Call @p fn with the target block of every memory-side *reader*
     * PEI between the end of its back-writeback and its retirement,
     * in offload order: copies may stay cached but none may be
     * Modified (probe hook).
     */
    template <typename Fn>
    void
    forEachMemReaderBlock(Fn &&fn)
    {
        forEachInflight(mem_readers, fn);
    }

  private:
    static constexpr std::uint32_t no_txn = ~std::uint32_t{0};

    /**
     * One in-flight PEI from issue to retirement.  The packet and
     * the issuer's completion callback are parked here (pooled, slab
     * storage) so that every pipeline-stage event captures only
     * `{this, txn-handle}` — the restructure that keeps the whole
     * PEI pipeline inside Continuation's inline-capture budget.
     */
    struct PeiTxn
    {
        PimPacket pkt;
        DoneFn done;
        unsigned core;
        Tick asked = 0;      ///< directory-wait start
        Tick load_start = 0; ///< host cache-load start
        /** Neighbours in its in-flight list while memory-side. */
        std::uint32_t inflight_prev = no_txn;
        std::uint32_t inflight_next = no_txn;
    };

    /**
     * Memory-side PEIs in flight, oldest offload first, threaded
     * through PeiTxn::inflight_prev/next so that a retirement unlinks
     * its own record in O(1).  Only the probe hooks walk it.
     */
    struct InflightList
    {
        std::uint32_t head = no_txn;
        std::uint32_t tail = no_txn;
    };

    template <typename Fn>
    void
    forEachInflight(const InflightList &list, Fn &fn)
    {
        for (std::uint32_t h = list.head; h != no_txn;
             h = txns[h].inflight_next)
            fn(txns[h].pkt.paddr >> block_shift);
    }

    // Pipeline stages, one per latency edge of the PEI's lifetime.
    void startPei(std::uint32_t txn);
    void acquireLock(std::uint32_t txn);
    void lockGranted(std::uint32_t txn);
    void decide(std::uint32_t txn);
    void decideLookup(std::uint32_t txn);
    void hostExecute(std::uint32_t txn);
    void hostExecuteBuffered(std::uint32_t txn);
    void hostLoaded(std::uint32_t txn);
    void hostComputed(std::uint32_t txn);
    void memExecute(std::uint32_t txn);
    void offload(std::uint32_t txn);
    void memFinish(std::uint32_t txn, PimPacket completed);
    void finish(std::uint32_t txn, bool executed_at_host);

    // Batching-window stages (cfg.pei_batch > 1 on a PIM backend).
    void windowInsert(std::uint32_t txn);
    void armWindowTimer(unsigned gv);
    void flushWindow(unsigned gv);
    void dispatchTrain(unsigned gv);
    void offloadTrain(std::uint32_t train);

    /**
     * Fig. 5 step ③ for one block: back-invalidate it (@p invalidate,
     * a writer offload) or back-write it back (a reader offload);
     * @p done fires once no cache holds a stale or dirty copy.
     */
    void cleanBlock(Addr paddr, bool invalidate, Callback done);

    /** Append @p txn to its in-flight list as it goes memory-side. */
    void linkInflight(std::uint32_t txn);

    /** Remove retiring @p txn from its in-flight list. */
    void unlinkInflight(std::uint32_t txn);

    /** Balanced-dispatch choice on a locality-monitor miss:
     *  true = offload to memory. */
    bool balancedChoice(const PimPacket &pkt);

    EventQueue &eq;
    PimConfig cfg;
    CacheHierarchy &hierarchy;
    MemoryBackend &mem;
    VirtualMemory &vm;

    PimDirectory dir;
    LocalityMonitor mon;
    std::vector<std::unique_ptr<Pcu>> host_pcus;
    std::vector<std::unique_ptr<MemSidePcu>> mem_pcus;

    SlotPool<PeiTxn> txns; ///< in-flight PEI transaction records

    /**
     * Per-vault coalescing window.  Memory-side PEIs park here until
     * the window fills (cfg.pei_batch), its timer expires
     * (batch_window_ticks) or a pfence flushes it; a flush takes one
     * merged coherence action and one interconnect train for the
     * whole batch.  Parked PEIs hold their directory locks, so the
     * timer is always armed while a window is non-empty — a window
     * can never strand its members.
     */
    struct BatchWindow
    {
        std::vector<std::uint32_t> txns; ///< parked PeiTxn handles
        std::uint64_t timer_gen = 0;     ///< voids stale timer events
    };

    /** One dispatched train between coherence grant and offload. */
    struct TrainTxn
    {
        std::vector<std::uint32_t> txns;
        unsigned pending = 0; ///< step-③ cleans still outstanding
    };

    bool batch_on = false;   ///< pei_batch > 1 on a PIM backend
    std::vector<BatchWindow> windows; ///< one per global vault
    SlotPool<TrainTxn> train_txns;

    InflightList mem_writers; ///< see forEachMemWriterBlock()
    InflightList mem_readers; ///< see forEachMemReaderBlock()

    Counter stat_peis_issued;
    Counter stat_peis_host;
    Counter stat_peis_mem;
    Counter stat_peis_mem_writers; ///< writer PEIs sent memory-side
    Counter stat_peis_mem_readers; ///< reader PEIs sent memory-side
    /** Step-③ cleans issued: back-invalidations + back-writebacks. */
    Counter stat_coh_actions;
    Counter stat_batched_peis;      ///< PEIs dispatched in trains (>= 2)
    Counter stat_pei_trains;        ///< trains dispatched (>= 2 members)
    Counter stat_window_singletons; ///< windows that drained with 1 PEI
    Counter stat_balanced_to_host;
    Counter stat_balanced_to_mem;

    /** End-to-end PEI latency (issue → retire), all PEIs. */
    Histogram hist_pei_latency;
    /** End-to-end latency of host-side-executed PEIs. */
    Histogram hist_pei_latency_host;
    /** End-to-end latency of memory-side-executed PEIs. */
    Histogram hist_pei_latency_mem;
    /** Directory wait: acquire request → lock granted. */
    Histogram hist_dir_wait;
    /** Cache-stage latency of host-executed PEIs (target load). */
    Histogram hist_host_cache;
    /** PEIs per dispatched window flush (batching only). */
    Histogram hist_window_peis;
};

} // namespace pei

#endif // PEISIM_PIM_PMU_HH
