/**
 * @file
 * Runtime: spawns workload threads (coroutines bound to cores) and
 * drives the event loop until they complete.
 */

#ifndef PEISIM_RUNTIME_RUNTIME_HH
#define PEISIM_RUNTIME_RUNTIME_HH

#include <memory>
#include <vector>

#include "runtime/context.hh"
#include "runtime/system.hh"
#include "sim/task.hh"

namespace pei
{

/** Thread-spawning and simulation-driving facade. */
class Runtime
{
  public:
    explicit Runtime(System &sys) : sys(sys) {}

    /** The simulated machine this runtime drives. */
    System &system() { return sys; }

    /** Allocate @p bytes of simulated memory. */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = block_size)
    {
        return sys.memory().alloc(bytes, align);
    }

    /** Allocate an array of @p count PODs; returns its base vaddr. */
    template <typename T>
    Addr
    allocArray(std::uint64_t count, std::uint64_t align = block_size)
    {
        return alloc(count * sizeof(T), align);
    }

    /**
     * Spawn a kernel coroutine bound to @p core.  A coroutine lambda
     * reads its captures through the lambda object, so pass a named
     * lambda that outlives run(), not a temporary.
     */
    template <typename Fn>
    void
    spawn(unsigned core, Fn &&fn)
    {
        fatal_if(core >= sys.numCores(), "spawn on bad core %u", core);
        ctxs.push_back(std::make_unique<Ctx>(sys, core));
        tasks.push_back(fn(*ctxs.back()));
        tasks.back().countFinish(finished);
    }

    /**
     * Spawn @p nthreads kernels on cores [base, base + nthreads),
     * invoking fn(ctx, tid, nthreads).  As with spawn(), a coroutine
     * lambda must outlive run().
     */
    template <typename Fn>
    void
    spawnThreads(unsigned nthreads, Fn &&fn, unsigned base = 0)
    {
        for (unsigned t = 0; t < nthreads; ++t) {
            const unsigned core = (base + t) % sys.numCores();
            ctxs.push_back(std::make_unique<Ctx>(sys, core));
            tasks.push_back(fn(*ctxs.back(), t, nthreads));
            tasks.back().countFinish(finished);
        }
    }

    /**
     * Drive the event loop until every spawned task finishes, then
     * settle remaining events.  Panics on deadlock (empty queue with
     * unfinished tasks).  Throws SimulationStopped if another host
     * thread calls eventQueue().requestStop() (sweep-driver timeout
     * cancellation); the System must be discarded afterwards.
     * @return simulated ticks elapsed during this run.
     */
    Tick
    run()
    {
        const Tick start = sys.now();
        EventQueue &eq = sys.eventQueue();
        std::uint64_t n = 0;
        while (!allDone()) {
            // Completion is a counter (O(1)); the cross-thread stop
            // flag is polled on the EventQueue's cadence so the hot
            // loop does one atomic load per 1024 events, not per
            // event, while cancellation latency stays bounded.
            if ((n & (EventQueue::stop_check_interval - 1)) == 0 &&
                eq.stopRequested())
                throw SimulationStopped();
            panic_if(!eq.runOne(),
                     "simulation deadlock: %zu unfinished task(s) with an "
                     "empty event queue",
                     unfinishedCount());
            ++n;
        }
        // Settle trailing events (posted writes, releases, ...).
        while (eq.runOne()) {}
        tasks.clear();
        ctxs.clear();
        finished = 0;
        return sys.now() - start;
    }

    /** True once all spawned tasks have completed (O(1)). */
    bool allDone() const { return finished == tasks.size(); }

  private:
    std::size_t
    unfinishedCount() const
    {
        std::size_t n = 0;
        for (const auto &t : tasks)
            n += !t.done();
        return n;
    }

    System &sys;
    std::vector<std::unique_ptr<Ctx>> ctxs;
    std::vector<Task> tasks;
    std::uint64_t finished = 0; ///< tasks completed (see countFinish)
};

} // namespace pei

#endif // PEISIM_RUNTIME_RUNTIME_HH
