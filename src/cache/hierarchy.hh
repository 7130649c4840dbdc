/**
 * @file
 * Three-level inclusive cache hierarchy with MESI coherence.
 *
 * Geometry follows Table 2 of the paper: private L1 (32 KB) and L2
 * (256 KB) per core, a shared 16 MB L3 reached over a crossbar, MSHRs
 * at the core side and the L3, and an inclusive policy throughout
 * (L1 ⊆ L2 ⊆ L3).  Coherence is maintained by an L3-side directory
 * (per-line sharer vector + owner) orchestrated centrally; state
 * changes are applied atomically at event execution time while
 * latency is charged to the requester, which preserves MESI
 * invariants without a full distributed message protocol.
 *
 * The PEI hooks the PMU needs are first-class citizens here:
 *  - backInvalidate(): flush + invalidate every cached copy of one
 *    block before a *writer* PEI is offloaded to memory;
 *  - backWriteback(): force dirty copies back to main memory (copies
 *    stay cached, clean) before a *reader* PEI is offloaded;
 *  - an L3-access listener that feeds the PMU's locality monitor.
 */

#ifndef PEISIM_CACHE_HIERARCHY_HH
#define PEISIM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/cache_array.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backend.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_index.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Cache hierarchy configuration (defaults = paper Table 2). */
struct CacheConfig
{
    std::uint64_t l1_bytes = 32 * 1024;
    unsigned l1_ways = 8;
    std::uint64_t l2_bytes = 256 * 1024;
    unsigned l2_ways = 8;
    std::uint64_t l3_bytes = 16 * 1024 * 1024;
    unsigned l3_ways = 16;

    Ticks l1_latency = 4;   ///< L1 hit latency (cycles)
    Ticks l2_latency = 12;  ///< additional L2 latency
    Ticks l3_latency = 27;  ///< additional L3 (bank) latency
    Ticks xbar_latency = 8; ///< crossbar one-way latency

    unsigned core_mshrs = 16; ///< per-core outstanding misses
    unsigned l3_mshrs = 64;   ///< outstanding DRAM fetches

    bool operator==(const CacheConfig &) const = default;
};

/**
 * The coherent cache hierarchy for all cores, backed by HMC main
 * memory.  All methods are callback-based; callbacks fire on the
 * owning EventQueue when the simulated operation completes.
 */
class CacheHierarchy
{
  public:
    using Callback = Continuation;
    /** PMU locality-monitor hook; 16 bytes fits its `{Pmu *}` closure. */
    using L3Listener = InlineFunction<void(Addr), 16>;

    CacheHierarchy(EventQueue &eq, const CacheConfig &cfg, unsigned cores,
                   MemoryBackend &mem, StatRegistry &stats);

    /**
     * Timing access from @p core (a demand load/store or a host-side
     * PCU access, which shares the core's L1 per paper §4.3).
     * @p cb fires when the access completes.
     */
    void access(unsigned core, Addr paddr, bool is_write, Callback cb);

    /**
     * Flush and invalidate every cached copy of @p paddr's block,
     * writing dirty data back to main memory (writer-PEI offload).
     */
    void backInvalidate(Addr paddr, Callback cb);

    /**
     * Force dirty copies of @p paddr's block back to main memory;
     * cached copies remain (clean) (reader-PEI offload).
     */
    void backWriteback(Addr paddr, Callback cb);

    /** Register the PMU hook invoked on every L3 access. */
    void setL3AccessListener(L3Listener fn) { l3_listener = std::move(fn); }

    /** True if any cache level holds @p paddr's block (test hook). */
    bool contains(Addr paddr);

    /** True if the L3 holds the block (test hook). */
    bool l3Contains(Addr paddr);

    /** Private-cache MESI state for (core, block) (test hook). */
    MesiState l1State(unsigned core, Addr paddr);
    MesiState l2State(unsigned core, Addr paddr);

    /** Verify inclusion and directory invariants; panics on breach. */
    void checkInvariants();

    /**
     * Non-panicking variant of checkInvariants() for mid-simulation
     * probes (simfuzz): returns a description of the first violated
     * inclusion/directory invariant, or an empty string when clean.
     */
    std::string invariantViolation();

    /**
     * Fault injection for checker self-validation (simfuzz
     * --inject-bug skip-back-inval): the @p nth back-invalidation
     * (1-based) completes without cleaning any cached copy and
     * without counting, so a correct checker must flag the run via
     * the PMU's offload/back-invalidation conservation audit or the
     * stale-copy probe.  0 disables.
     */
    void injectSkipBackInvalidate(std::uint64_t nth)
    {
        inject_skip_back_inval = nth;
    }

    unsigned numCores() const { return static_cast<unsigned>(privs.size()); }

  private:
    struct PrivateCaches
    {
        CacheArray l1;
        CacheArray l2;

        PrivateCaches(const CacheConfig &cfg)
            : l1(cfg.l1_bytes, cfg.l1_ways), l2(cfg.l2_bytes, cfg.l2_ways)
        {}
    };

    /**
     * A fixed file of miss-status holding registers: one entry per
     * block with a miss in flight, holding the requests coalesced
     * onto it.  Entries come from a free-slot stack and are found
     * through a SlotIndex, so no operation allocates an entry.
     */
    class MshrFile
    {
      public:
        explicit MshrFile(unsigned entries);

        /** Waiters on @p block's miss, or nullptr if none is in flight. */
        std::vector<Callback> *find(Addr block);

        bool full() const { return free_slots.empty(); }

        /** Claim an entry for @p block (not full, not in flight). */
        void allocate(Addr block);

        /**
         * Free @p block's entry and hand back its waiters in arrival
         * order.  They leave the entry before they run, because a
         * waiter may claim an entry itself.
         */
        std::vector<Callback> release(Addr block);

      private:
        std::vector<std::vector<Callback>> waiters; ///< per entry
        std::vector<std::uint32_t> free_slots;
        SlotIndex index; ///< block -> entry
    };

    /**
     * One in-flight demand access past the L1 lookup.  The
     * requester's callback is parked here (pooled, slab storage) so
     * that every L2/L3/DRAM pipeline event captures only
     * `{this, handle}` — keeping the miss path inside Continuation's
     * inline-capture budget.
     */
    struct PendingAccess
    {
        unsigned core;
        Addr paddr;
        bool is_write;
        Callback cb;
    };

    /** A back-invalidation/-writeback parked behind an L3 MSHR. */
    struct BackOp
    {
        Addr paddr;
        bool invalidate; ///< backInvalidate, else backWriteback
        Callback cb;
    };

    // --- internal operations (state changes are instantaneous) ---

    /** Re-dispatch a parked access (MSHR coalesce/stall retry). */
    void retryAccess(std::uint32_t req);

    /** The L2 lookup stage of access @p req (after L1 latency). */
    void missL2(std::uint32_t req);

    /** Handle the L3/directory stage of access @p req. */
    void accessL3(std::uint32_t req);

    /** DRAM fetch for access @p req landed; fill and wake waiters. */
    void l3FetchDone(std::uint32_t req);

    /** Release @p req's core MSHR, signal it, wake waiters. */
    void completeCoreMiss(std::uint32_t req);

    /** Re-dispatch a back-op parked behind an L3 MSHR. */
    void retryBackOp(std::uint32_t op);

    /** Fill the private L1+L2 of @p core with @p block in @p state. */
    void fillPrivate(unsigned core, Addr block, MesiState state);

    /** Evict @p core's copies of @p block; returns true if dirty. */
    bool invalidatePrivate(unsigned core, Addr block);

    /** Write @p core's dirty copy of @p block into the L3 (clean
     *  downgrade); returns true if data was dirty. */
    bool downgradePrivate(unsigned core, Addr block);

    /** Insert @p block into the L3, evicting as needed. */
    CacheLine &insertL3(Addr block);

    /** Retry requests stalled on core-MSHR exhaustion for @p core. */
    void drainCoreStalled(unsigned core);

    /** Retry a bounded number of L3-MSHR-stalled requests. */
    void drainL3Stalled();

    EventQueue &eq;
    CacheConfig cfg;
    MemoryBackend &mem;

    std::vector<PrivateCaches> privs;
    CacheArray l3;

    /** Per-core MSHRs (cover the L1/L2 miss path). */
    std::vector<MshrFile> core_mshrs;

    /** L3 MSHRs: in-flight DRAM fetches. */
    MshrFile l3_mshrs;

    /** Requests stalled on core-MSHR exhaustion, per core. */
    std::vector<std::deque<Callback>> core_stalled;

    /** Requests stalled on L3-MSHR exhaustion. */
    std::deque<Callback> l3_stalled;

    /** Parked in-flight demand accesses (handle-addressed). */
    SlotPool<PendingAccess> accesses;

    /** Parked back-invalidations/-writebacks awaiting an L3 MSHR. */
    SlotPool<BackOp> back_ops;

    L3Listener l3_listener;

    std::uint64_t inject_skip_back_inval = 0; ///< 0 = no injection
    std::uint64_t back_inval_calls = 0; ///< performed back-invalidations

    Counter stat_l1_hits;
    Counter stat_l1_misses;
    Counter stat_l2_hits;
    Counter stat_l2_misses;
    Counter stat_l3_hits;
    Counter stat_l3_misses;
    Counter stat_l1_accesses;
    Counter stat_l2_accesses;
    Counter stat_l3_accesses;
    Counter stat_l3_coalesced; ///< L3 accesses folded into an MSHR
    Counter stat_xbar_msgs;
    Counter stat_writebacks_l3;   ///< dirty private data merged into L3
    Counter stat_writebacks_mem;  ///< dirty L3 victims written to DRAM
    Counter stat_invalidations;   ///< remote private copies invalidated
    Counter stat_back_inval;      ///< PMU back-invalidations
    Counter stat_back_wb;         ///< PMU back-writebacks
};

} // namespace pei

#endif // PEISIM_CACHE_HIERARCHY_HH
