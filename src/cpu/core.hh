/**
 * @file
 * Simplified out-of-order core model.
 *
 * Rather than a per-stage pipeline, each core exposes the property
 * that dominates these memory-bound workloads: a bounded window of
 * in-flight memory operations (memory-level parallelism).  Workload
 * threads acquire a window slot per outstanding load/store/PEI and
 * block when the window is full — the same first-order behaviour an
 * OoO core with a finite ROB/LSQ exhibits.  Each core also owns the
 * TLB used to translate both normal accesses and PEIs (paper §4.4).
 */

#ifndef PEISIM_CPU_CORE_HH
#define PEISIM_CPU_CORE_HH

#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/vmem.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"

namespace pei
{

/** Core model configuration. */
struct CoreConfig
{
    unsigned window = 64;      ///< max in-flight memory ops / PEIs
    unsigned tlb_entries = 64;
    double tlb_walk_ns = 30.0; ///< page-walk penalty on TLB miss

    bool operator==(const CoreConfig &) const = default;
};

/** One host core: window accounting + TLB + retirement counters. */
class Core
{
  public:
    using Callback = Continuation;

    Core(EventQueue &eq, const CoreConfig &cfg, unsigned id,
         StatRegistry &stats)
        : eq(eq), cfg(cfg), id_(id),
          tlb(cfg.tlb_entries, nsToTicks(cfg.tlb_walk_ns))
    {
        const std::string p = "core" + std::to_string(id) + ".";
        stats.add(p + "loads", &stat_loads);
        stats.add(p + "stores", &stat_stores);
        stats.add(p + "peis", &stat_peis);
        stats.add(p + "retired_ops", &stat_retired);
        stats.add(p + "window_stalls", &stat_window_stalls);
    }

    unsigned id() const { return id_; }

    /** True if no window slot is free. */
    bool windowFull() const { return outstanding >= cfg.window; }

    /** Number of in-flight operations. */
    unsigned inFlight() const { return outstanding; }

    /**
     * Obtain a window slot, invoking @p then once one is available
     * (immediately if the window has room).
     */
    void
    acquireSlot(Callback then)
    {
        if (!windowFull()) {
            ++outstanding;
            then();
            return;
        }
        ++stat_window_stalls;
        eq.park(slot_waiters, std::move(then));
    }

    /** Release a window slot; wakes one waiter / drain watchers. */
    void
    releaseSlot()
    {
        panic_if(outstanding == 0, "core %u released an empty window",
                 id_);
        --outstanding;
        ++stat_retired;
        if (!slot_waiters.empty()) {
            ++outstanding; // hand the slot straight to the waiter
            eq.wake(slot_waiters);
        } else if (outstanding == 0) {
            while (!drain_waiters.empty())
                eq.wake(drain_waiters);
        }
    }

    /** Invoke @p then once all in-flight operations complete. */
    void
    waitForDrain(Callback then)
    {
        if (outstanding == 0 && slot_waiters.empty()) {
            then();
            return;
        }
        eq.park(drain_waiters, std::move(then));
    }

    /** TLB lookup latency contribution for @p vaddr. */
    Ticks translateLatency(Addr vaddr) { return tlb.access(vaddr); }

    void countLoad() { ++stat_loads; }
    void countStore() { ++stat_stores; }
    void countPei() { ++stat_peis; }

    std::uint64_t retiredOps() const { return stat_retired.value(); }

  private:
    EventQueue &eq;
    CoreConfig cfg;
    unsigned id_;
    Tlb tlb;

    unsigned outstanding = 0;
    EventQueue::WaitList slot_waiters;
    EventQueue::WaitList drain_waiters;

    Counter stat_loads;
    Counter stat_stores;
    Counter stat_peis;
    Counter stat_retired;
    Counter stat_window_stalls;
};

} // namespace pei

#endif // PEISIM_CPU_CORE_HH
