/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single global-ordered queue of (tick, callback) events.  Events
 * scheduled for the same tick execute in scheduling order (FIFO),
 * which keeps simulations fully deterministic.
 *
 * Storage layout: the binary heap holds 24-byte EventRef PODs
 * (tick, seq, slot) while the continuations themselves live in a
 * SlotPool slab arena addressed by slot.  Heap sift operations move
 * only PODs, arena slots are recycled through a freelist, and the
 * callables are allocation-free InlineFunctions — so a steady-state
 * schedule/execute cycle touches the heap allocator exactly zero
 * times.  Ordering is unaffected: the (tick, seq) key is identical
 * to a naive heap of fat nodes, which tests/test_event_queue.cc
 * drives op-for-op against this queue as the ordering reference.
 */

#ifndef PEISIM_SIM_EVENT_QUEUE_HH
#define PEISIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional> // stdfunction-allowed: cold boundary-probe hook only
#include <stdexcept>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/continuation.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/**
 * Callback type for the event-boundary probe (invariant checkers).
 * Probes are cold (installed rarely, fire every N events) and may
 * capture arbitrarily large checker state, so they stay type-erased
 * on the heap rather than paying Continuation's inline budget.
 */
using EventFn = std::function<void()>; // stdfunction-allowed: probe hook

/**
 * Thrown by the simulation-driving loops (Runtime::run) when a
 * cross-thread stop request arrives via EventQueue::requestStop —
 * e.g. the sweep driver cancelling a job that exceeded its
 * wall-clock timeout.  The simulation is abandoned at an event
 * boundary; its System must be discarded, not resumed.
 */
class SimulationStopped : public std::runtime_error
{
  public:
    SimulationStopped()
        : std::runtime_error("simulation stopped by external request")
    {}
};

/**
 * The event queue that drives a simulation.  One instance per
 * simulated System; all components schedule against it.
 */
class EventQueue
{
  public:
    /**
     * Cadence (in events) of the relaxed-atomic stopRequested() check
     * inside run() and the other driving loops.  Checking every event
     * taxed the hot loop for a knob that only sweep-driver timeouts
     * ever pull; checking every 1024 events bounds cancellation
     * latency to a still-instant ~microsecond while keeping the load
     * off the per-event path.  Must be a power of two.
     */
    static constexpr std::uint64_t stop_check_interval = 1024;

    /** Current simulation time. */
    Tick now() const { return cur_tick; }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    schedule(Ticks delay, Continuation fn)
    {
        scheduleAt(cur_tick + delay, std::move(fn));
    }

    /** Schedule @p fn at absolute time @p when (>= now). */
    void
    scheduleAt(Tick when, Continuation fn)
    {
        panic_if(when < cur_tick,
                 "scheduling event in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(cur_tick));
        const std::uint32_t slot = arena.emplace(std::move(fn));
        events.push_back(Event{when, next_seq++, slot});
        std::push_heap(events.begin(), events.end(), Later{});
    }

    /** True if no events are pending. */
    bool empty() const { return events.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return events.size(); }

    /**
     * Pop and execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (events.empty())
            return false;
        // pop_heap moves the front event to the back, where it can be
        // moved from without casting away constness.  The callback
        // may schedule new events, so extract it fully first.
        std::pop_heap(events.begin(), events.end(), Later{});
        const Event ev = events.back();
        events.pop_back();
        cur_tick = ev.when;
        Continuation fn = std::move(arena[ev.slot]);
        arena.erase(ev.slot);
        fn();
        ++executed_count;
        if (probe && executed_count % probe_every == 0)
            probe();
        return true;
    }

    /**
     * Install @p fn as the event-boundary probe: it runs after every
     * @p every-th executed event, at a point where all component
     * state is settled (no event is mid-flight).  Invariant checkers
     * (simfuzz) hook here; a throwing probe propagates out of
     * runOne()/run(), abandoning the simulation at the boundary.
     * Pass a null fn to uninstall.
     */
    void
    setBoundaryProbe(EventFn fn, std::uint64_t every = 1)
    {
        probe = std::move(fn);
        probe_every = every ? every : 1;
    }

    /** Why run() returned (exposed so raw-loop callers can tell a
     *  drain from an external cancellation; see RunOutcome). */
    enum class RunBreak : std::uint8_t
    {
        Drained, ///< queue empty
        Stopped, ///< requestStop() observed at a check boundary
    };

    /**
     * Result of run(): how many events executed and why the loop
     * broke.  A stop request used to be indistinguishable from a
     * normal drain here, so raw-loop callers (bench warmup loops,
     * golden-model drivers) silently swallowed cancellations that
     * Runtime::run turns into SimulationStopped; they can now call
     * throwIfStopped() to propagate consistently.
     */
    struct RunOutcome
    {
        std::uint64_t executed = 0;
        RunBreak why = RunBreak::Drained;

        bool stopped() const { return why == RunBreak::Stopped; }

        /** Propagate an external stop the way Runtime::run does. */
        void
        throwIfStopped() const
        {
            if (stopped())
                throw SimulationStopped();
        }
    };

    /**
     * Run until the queue drains or a stop is requested (checked
     * every stop_check_interval events).
     * @return events executed plus the break reason.
     */
    RunOutcome
    run()
    {
        RunOutcome out;
        while (!events.empty()) {
            if ((out.executed & (stop_check_interval - 1)) == 0 &&
                stopRequested()) {
                out.why = RunBreak::Stopped;
                return out;
            }
            runOne();
            ++out.executed;
        }
        return out;
    }

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_count; }

    /**
     * High-water continuation-arena size in slots (live + freelist).
     * Exposes pool sizing to the hot-path benchmarks and pool-growth
     * tests.
     */
    std::uint32_t arenaCapacity() const { return arena.capacity(); }

    /**
     * Ask the loop driving this queue to stop at the next
     * stop-check boundary.  The only EventQueue operation that is
     * safe to call from a different host thread than the one running
     * the simulation; everything else is single-threaded.
     */
    void
    requestStop()
    {
        stop_requested_.store(true, std::memory_order_relaxed);
    }

    /** True once requestStop was called (sticky until cleared). */
    bool
    stopRequested() const
    {
        return stop_requested_.load(std::memory_order_relaxed);
    }

    /** Re-arm the queue after a handled stop (tests, reuse). */
    void
    clearStopRequest()
    {
        stop_requested_.store(false, std::memory_order_relaxed);
    }

  private:
    /** POD heap node; the continuation lives in the slab arena. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap comparator: the earliest (tick, seq) event sits at the
     *  front of the std::*_heap-maintained vector. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Event> events; ///< binary heap ordered by Later
    SlotPool<Continuation> arena; ///< pending-event continuations
    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t executed_count = 0;
    std::atomic<bool> stop_requested_{false};
    EventFn probe;                 ///< event-boundary invariant probe
    std::uint64_t probe_every = 1; ///< probe cadence in events
};

} // namespace pei

#endif // PEISIM_SIM_EVENT_QUEUE_HH
