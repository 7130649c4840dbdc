/**
 * @file
 * Discrete-event simulation engine.
 *
 * A single global-ordered queue of (tick, callback) events.  Events
 * scheduled for the same tick execute in scheduling order (FIFO),
 * which keeps simulations fully deterministic.
 *
 * Storage layout: a hashed timing wheel (Varghese & Lauck, SOSP
 * 1987) of 256 per-tick FIFO buckets holds every event due within
 * 256 ticks of now, which is nearly all of them; a binary heap of
 * 24-byte (tick, seq, slot) PODs holds only the events further out.
 * Scheduling into the window is an O(1) append, and the next event
 * is the head of the first occupied bucket, found with a bitmap
 * scan.  When time advances to t, every heap event due before
 * t + 256 moves into its bucket in (tick, seq) order.
 *
 * The continuations themselves live in a SlotPool slab arena
 * addressed by slot; each 64-byte arena record also holds the link
 * to the next record in its bucket or wait list.  The arena holds
 * both scheduled continuations and parked ones: a WaitList is a FIFO
 * of events without a time (a core's window-slot waiters, directory
 * lock waiters, MSHR waiters, a barrier's arrivals), which wake()
 * later links into the schedule or runParked() runs at once.  Arena
 * slots are recycled through a freelist and the callables are
 * allocation-free InlineFunctions, so a steady-state
 * schedule/park/execute cycle touches the heap allocator exactly
 * zero times.  schedule() and park() build the continuation straight
 * in its arena record, and runOne() and runParked() invoke it there
 * and free the slot once it returns or throws, so a closure is never
 * moved.  That is safe because arena chunks never move and a live
 * slot is never reused: a callback may schedule or park, and so grow
 * the arena, while it runs.
 *
 * Ordering is exactly the (tick, seq) order of a plain heap: a heap
 * event for tick T was scheduled before T entered the window, so
 * before any event scheduled straight into T's bucket, and the heap
 * releases same-tick events in seq order; so every bucket is in
 * scheduling order.  tests/test_event_queue.cc drives this queue
 * op-for-op against a naive heap of fat nodes as the ordering
 * reference.
 */

#ifndef PEISIM_SIM_EVENT_QUEUE_HH
#define PEISIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional> // stdfunction-allowed: cold boundary-probe hook only
#include <stdexcept>
#include <utility>
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

    /** Schedule @p fn (anything a Continuation is constructible
     *  from) to run @p delay ticks from now. */
    template <typename F>
    void
    schedule(Ticks delay, F &&fn)
    {
        scheduleAt(cur_tick + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (>= now). */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        panic_if(when < cur_tick,
                 "scheduling event in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(cur_tick));
        place(when, arena.emplace(std::forward<F>(fn)));
    }

    /**
     * A FIFO of parked continuations, each in the arena slot park()
     * built it in.  Plain data, so a copy detaches the whole list and
     * the original may then be reset and reused.
     */
    struct WaitList
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
        std::uint32_t size = 0;

        bool empty() const { return size == 0; }
    };

    /** Build @p fn in an arena slot at the tail of @p list. */
    template <typename F>
    void
    park(WaitList &list, F &&fn)
    {
        const std::uint32_t slot = arena.emplace(std::forward<F>(fn));
        if (list.size++ == 0)
            list.head = slot;
        else
            arena[list.tail].next = slot;
        list.tail = slot;
    }

    /** Schedule @p list's head @p delay ticks from now, in the
     *  (tick, seq) place schedule() would give it, without moving it. */
    void
    wake(WaitList &list, Ticks delay = 0)
    {
        place(cur_tick + delay, unpark(list));
    }

    /** Run @p list's head now, in its slot, and free the slot. */
    void runParked(WaitList &list) { invoke(unpark(list)); }

    /** True if no events are pending (parked ones do not count). */
    bool empty() const { return wheel_count == 0 && far.empty(); }

    /** Number of pending events (parked ones do not count). */
    std::size_t size() const { return wheel_count + far.size(); }

    /** Number of parked continuations (call it between events). */
    std::uint64_t parkedCount() const { return arena.liveCount() - size(); }

    /**
     * Pop and execute the next event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (wheel_count == 0) {
            if (far.empty())
                return false;
            // Only far events remain: jump straight to the first.
            advanceTo(far.front().when);
        }
        const unsigned b = nextBucket();
        const Tick when =
            cur_tick + ((b - static_cast<unsigned>(cur_tick)) & wheel_mask);
        if (when != cur_tick)
            advanceTo(when);

        // The callback may schedule new events, so unlink it first.
        const std::uint32_t slot = head[b];
        const std::uint32_t next = arena[slot].next;
        if (next == none)
            occupied[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
        else
            head[b] = next;
        --wheel_count;
        invoke(slot);
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
     * broke.  Runtime::run calls throwIfStopped() on it, so a stop
     * request surfaces as SimulationStopped rather than as a drain.
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
        while (!empty()) {
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
    /** Width of the wheel in ticks: one bucket per tick. */
    static constexpr unsigned wheel_span = 256;
    static constexpr unsigned wheel_mask = wheel_span - 1;
    static constexpr unsigned wheel_words = wheel_span / 64;
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /**
     * Arena record: a scheduled or parked continuation plus the slot
     * of the next record in its wheel bucket or wait list.
     */
    struct Node
    {
        template <typename F>
        explicit Node(F &&f) : fn(std::forward<F>(f)) {}

        Continuation fn;
        std::uint32_t next = none;
    };

    /** POD far-heap node; the continuation lives in the slab arena. */
    struct FarEvent
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
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Link @p slot into the wheel or the far heap at tick @p when. */
    void
    place(Tick when, std::uint32_t slot)
    {
        if (when - cur_tick < wheel_span) {
            append(when, slot);
        } else {
            far.push_back(FarEvent{when, next_seq++, slot});
            std::push_heap(far.begin(), far.end(), Later{});
        }
    }

    /** Unlink @p list's head (the list must not be empty). */
    std::uint32_t
    unpark(WaitList &list)
    {
        panic_if(list.size == 0, "waking an empty wait list");
        const std::uint32_t slot = list.head;
        list.head = std::exchange(arena[slot].next, none);
        --list.size;
        return slot;
    }

    /** Run the continuation in @p slot there, then free the slot. */
    void
    invoke(std::uint32_t slot)
    {
        try {
            arena[slot].fn();
        } catch (...) {
            arena.erase(slot);
            throw;
        }
        arena.erase(slot);
    }

    /** Append @p slot to the bucket of tick @p when (in the window). */
    void
    append(Tick when, std::uint32_t slot)
    {
        const unsigned b = static_cast<unsigned>(when) & wheel_mask;
        const std::uint64_t bit = std::uint64_t{1} << (b & 63);
        if (occupied[b >> 6] & bit) {
            arena[tail[b]].next = slot;
        } else {
            head[b] = slot;
            occupied[b >> 6] |= bit;
        }
        tail[b] = slot;
        ++wheel_count;
    }

    /**
     * Advance time to @p t and move every far event now inside the
     * window into its bucket.  Callers only advance to a tick whose
     * earlier window ticks have all run, so those buckets hold no
     * events yet and the migrated ones keep their (tick, seq) order
     * ahead of anything scheduled later.  No far event is due before
     * @p t, so the subtraction cannot wrap.
     */
    void
    advanceTo(Tick t)
    {
        cur_tick = t;
        while (!far.empty() && far.front().when - t < wheel_span) {
            std::pop_heap(far.begin(), far.end(), Later{});
            const FarEvent ev = far.back();
            far.pop_back();
            append(ev.when, ev.slot);
        }
    }

    /** First occupied bucket at or after now's, circularly (the
     *  wheel must hold at least one event). */
    unsigned
    nextBucket() const
    {
        const unsigned start = static_cast<unsigned>(cur_tick) & wheel_mask;
        unsigned w = start >> 6;
        std::uint64_t bits = occupied[w] & (~std::uint64_t{0} << (start & 63));
        while (bits == 0) {
            w = (w + 1) & (wheel_words - 1);
            bits = occupied[w];
        }
        return (w << 6) | static_cast<unsigned>(std::countr_zero(bits));
    }

    std::array<std::uint32_t, wheel_span> head{}; ///< first slot per bucket
    std::array<std::uint32_t, wheel_span> tail{}; ///< last slot per bucket
    std::array<std::uint64_t, wheel_words> occupied{}; ///< bucket bitmap
    std::size_t wheel_count = 0;  ///< events in the wheel
    std::vector<FarEvent> far;    ///< binary heap ordered by Later
    SlotPool<Node> arena;         ///< scheduled and parked records
    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;   ///< far-heap FIFO tie-break
    std::uint64_t executed_count = 0;
    std::atomic<bool> stop_requested_{false};
    EventFn probe;                 ///< event-boundary invariant probe
    std::uint64_t probe_every = 1; ///< probe cadence in events
};

} // namespace pei

#endif // PEISIM_SIM_EVENT_QUEUE_HH
