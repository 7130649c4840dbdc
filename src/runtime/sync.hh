/**
 * @file
 * Synchronization primitives for simulated threads.
 *
 * Barrier supports the phase-parallel structure of the paper's
 * workloads (level-synchronous BFS, PageRank iterations, ...):
 * every party co_awaits arrive(); the last arrival releases all.
 */

#ifndef PEISIM_RUNTIME_SYNC_HH
#define PEISIM_RUNTIME_SYNC_HH

#include <coroutine>

#include "common/logging.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace pei
{

/** Reusable coroutine barrier for a fixed number of parties. */
class Barrier
{
  public:
    Barrier(EventQueue &eq, unsigned parties) : eq(eq), parties(parties)
    {
        fatal_if(parties == 0, "barrier with zero parties");
    }

    class Awaiter
    {
      public:
        explicit Awaiter(Barrier &b) : barrier(b) {}

        /** The last arriver releases everyone and does not suspend. */
        bool await_ready() { return barrier.doArrive(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            barrier.eq.park(barrier.waiters, [h] { resumeLive(h); });
        }

        void await_resume() {}

      private:
        Barrier &barrier;
    };

    /** co_await barrier.arrive() — returns when all parties arrived. */
    Awaiter arrive() { return Awaiter{*this}; }

  private:
    friend class Awaiter;

    /** @return true when this arrival completes the barrier. */
    bool
    doArrive()
    {
        ++count;
        panic_if(count > parties, "barrier overflow");
        if (count < parties)
            return false;
        count = 0;
        while (!waiters.empty())
            eq.wake(waiters);
        return true;
    }

    EventQueue &eq;
    unsigned parties;
    unsigned count = 0;
    EventQueue::WaitList waiters;
};

} // namespace pei

#endif // PEISIM_RUNTIME_SYNC_HH
