/**
 * @file
 * C++20 coroutine plumbing for workload threads.
 *
 * Workload kernels are written as coroutines returning Task; they
 * suspend on simulated-memory awaitables (loads, stores, PEIs,
 * fences, compute delays) and are resumed by event-queue callbacks
 * when the simulated operation completes.  Tasks are eager (start
 * running on creation) and support co_await-ing sub-tasks via
 * continuation chaining.
 */

#ifndef PEISIM_SIM_TASK_HH
#define PEISIM_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <utility>

#ifndef NDEBUG
#include <unordered_set>
#endif

#include "event_queue.hh"

namespace pei
{

#ifndef NDEBUG
namespace detail
{

/**
 * Debug-build registry of live Task coroutine frames.  Frames are
 * registered at creation and removed when the promise is destroyed;
 * resumeLive() consults it to catch the classic discrete-event bug
 * of a scheduled resumption outliving its coroutine.
 */
inline std::unordered_set<void *> &
liveFrames()
{
    static thread_local std::unordered_set<void *> frames;
    return frames;
}

} // namespace detail
#endif

/**
 * Resume @p h, asserting (debug builds) that the frame is a live
 * Task frame — i.e. it was created by a Task coroutine and has not
 * been destroyed.  All scheduled resumptions route through here so a
 * dangling event can never silently resume freed memory.
 */
inline void
resumeLive(std::coroutine_handle<> h)
{
#ifndef NDEBUG
    panic_if(detail::liveFrames().count(h.address()) == 0,
             "resuming a destroyed (or non-Task) coroutine frame %p",
             h.address());
#endif
    h.resume();
}

/**
 * Eager, fire-on-create coroutine task.  The owner must keep the Task
 * object alive until done() (the frame is destroyed by ~Task).
 */
class Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type
    {
        std::coroutine_handle<> continuation;
        bool finished = false;
        /** Incremented on completion if set (Runtime's O(1) allDone). */
        std::uint64_t *finish_counter = nullptr;

        Task
        get_return_object()
        {
#ifndef NDEBUG
            detail::liveFrames().insert(
                Handle::from_promise(*this).address());
#endif
            return Task(Handle::from_promise(*this));
        }

#ifndef NDEBUG
        ~promise_type()
        {
            detail::liveFrames().erase(Handle::from_promise(*this).address());
        }
#endif

        std::suspend_never initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                h.promise().finished = true;
                if (auto *counter = h.promise().finish_counter)
                    ++*counter;
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    Task() = default;
    explicit Task(Handle h) : handle(h) {}

    Task(Task &&other) noexcept : handle(std::exchange(other.handle, {})) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle = std::exchange(other.handle, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** True once the coroutine ran to completion. */
    bool done() const { return !handle || handle.promise().finished; }

    /**
     * Arrange for @p counter to be incremented when this task
     * finishes (immediately if it already has).  Lets owners of many
     * tasks answer "are all done?" in O(1) instead of scanning.  The
     * counter must outlive the coroutine frame.
     */
    void
    countFinish(std::uint64_t &counter)
    {
        if (done())
            ++counter;
        else
            handle.promise().finish_counter = &counter;
    }

    // Awaitable interface: co_await task waits for its completion.
    bool await_ready() const { return done(); }

    void
    await_suspend(std::coroutine_handle<> cont)
    {
        handle.promise().continuation = cont;
    }

    void await_resume() {}

  private:
    void
    destroy()
    {
        if (handle) {
            handle.destroy();
            handle = {};
        }
    }

    Handle handle;
};

/** Awaitable that resumes the coroutine @p delay ticks later. */
class DelayAwaiter
{
  public:
    DelayAwaiter(EventQueue &eq, Ticks delay) : eq(eq), delay(delay) {}

    bool await_ready() const { return delay == 0; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq.schedule(delay, Continuation([h] { resumeLive(h); }));
    }

    void await_resume() {}

  private:
    EventQueue &eq;
    Ticks delay;
};

} // namespace pei

#endif // PEISIM_SIM_TASK_HH
