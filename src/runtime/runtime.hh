/**
 * @file
 * Runtime: spawns workload threads (coroutines bound to cores) and
 * drives the event loop until they complete.
 */

#ifndef PEISIM_RUNTIME_RUNTIME_HH
#define PEISIM_RUNTIME_RUNTIME_HH

#include <memory>
#include <string>
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
     * Drive the event loop until the queue drains: every spawned task
     * finishes and trailing events (posted writes, releases, ...)
     * settle.  Panics on deadlock (empty queue with unfinished
     * tasks).  Throws SimulationStopped if another host thread calls
     * eventQueue().requestStop() (sweep-driver timeout cancellation);
     * the System must be discarded afterwards.
     * @return simulated ticks elapsed during this run.
     */
    Tick
    run()
    {
        const Tick start = sys.now();
        sys.eventQueue().run().throwIfStopped();
        panic_if(!allDone(),
                 "simulation deadlock: %zu unfinished task(s) with an "
                 "empty event queue; core(s)%s; %llu parked "
                 "continuation(s)",
                 static_cast<std::size_t>(tasks.size() - finished),
                 unfinishedCores().c_str(),
                 static_cast<unsigned long long>(
                     sys.eventQueue().parkedCount()));
        tasks.clear();
        ctxs.clear();
        finished = 0;
        return sys.now() - start;
    }

    /** True once all spawned tasks have completed (O(1)). */
    bool allDone() const { return finished == tasks.size(); }

  private:
    /** " c0 c1 ...": the cores of the unfinished tasks. */
    std::string
    unfinishedCores() const
    {
        std::string cores;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (!tasks[i].done())
                cores += " " + std::to_string(ctxs[i]->coreId());
        }
        return cores;
    }

    System &sys;
    std::vector<std::unique_ptr<Ctx>> ctxs;
    std::vector<Task> tasks;
    std::uint64_t finished = 0; ///< tasks completed (see countFinish)
};

} // namespace pei

#endif // PEISIM_RUNTIME_RUNTIME_HH
