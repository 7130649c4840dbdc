/**
 * @file
 * Ctx: the per-thread execution context workload kernels use.
 *
 * Kernels are C++20 coroutines (returning Task) that interleave:
 *  - functional accesses (fread/fwrite) touching backing memory
 *    immediately with no simulated cost, and
 *  - timing operations (co_await ctx.load/store/pei/...) that drive
 *    the simulated machine.
 *
 * Two issue styles mirror how an out-of-order core overlaps work:
 *  - blocking ops (load/loadValue/pei) suspend until completion —
 *    use them for true data dependences (pointer chasing);
 *  - async ops (loadAsync/storeAsync/peiAsync) suspend only until an
 *    issue-window slot is free, letting independent operations
 *    overlap exactly like an OoO window does.  drain() awaits all of
 *    the thread's outstanding async operations.
 *
 * pfence() implements the paper's PIM memory fence: it completes
 * once every writer PEI issued before it (from any core) retires.
 */

#ifndef PEISIM_RUNTIME_CONTEXT_HH
#define PEISIM_RUNTIME_CONTEXT_HH

#include <coroutine>
#include <cstring>

#include "runtime/system.hh"
#include "sim/task.hh"

namespace pei
{

class Ctx;

namespace detail
{

/** Awaiter for blocking loads/stores. */
class MemOpAwaiter
{
  public:
    MemOpAwaiter(Ctx &ctx, Addr vaddr, bool is_write)
        : ctx(ctx), vaddr(vaddr), is_write(is_write)
    {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}

  protected:
    Ctx &ctx;
    Addr vaddr;
    bool is_write;
};

/** Awaiter for blocking loads that yields the loaded value. */
template <typename T>
class TypedLoadAwaiter : public MemOpAwaiter
{
  public:
    TypedLoadAwaiter(Ctx &ctx, Addr vaddr) : MemOpAwaiter(ctx, vaddr, false)
    {}

    T await_resume();
};

/** Awaiter for async ops: resumes once a window slot is obtained. */
class AsyncMemOpAwaiter
{
  public:
    AsyncMemOpAwaiter(Ctx &ctx, Addr vaddr, bool is_write)
        : ctx(ctx), vaddr(vaddr), is_write(is_write)
    {}

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume();

  private:
    Ctx &ctx;
    Addr vaddr;
    bool is_write;
};

/** Awaiter for blocking PEIs; yields the completed packet. */
class PeiAwaiter
{
  public:
    PeiAwaiter(Ctx &ctx, PeiOpcode op, Addr vaddr, const void *input,
               unsigned input_size)
        : ctx(ctx), op(op), vaddr(vaddr), input_size(input_size)
    {
        if (input_size > 0)
            std::memcpy(input_buf, input, input_size);
    }

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    PimPacket await_resume() { return result; }

  private:
    Ctx &ctx;
    PeiOpcode op;
    Addr vaddr;
    unsigned input_size;
    std::uint8_t input_buf[max_operand_bytes] = {};
    PimPacket result;
};

/** The completion callable of a fire-and-forget async PEI. */
struct IgnorePacket
{
    void operator()(const PimPacket &) const {}
};

/**
 * Awaiter for async PEIs: resumes once a window slot is obtained.
 * @p OnComplete observes the finished packet (e.g. to accumulate PEI
 * outputs host-side, as HG/SC/SVM do).  It is kept as its own type,
 * as Ctx::issueAccess keeps its callback, so the completion
 * forwarder the issue path builds is `{Ctx *, OnComplete}`, which
 * fits the PMU's 16-byte DoneFn when OnComplete is empty or one
 * pointer.
 */
template <typename OnComplete = IgnorePacket>
class AsyncPeiAwaiter
{
  public:
    AsyncPeiAwaiter(Ctx &ctx, PeiOpcode op, Addr vaddr, const void *input,
                    unsigned input_size, OnComplete on_complete = {})
        : ctx(ctx), op(op), vaddr(vaddr), input_size(input_size),
          on_complete(std::move(on_complete))
    {
        if (input_size > 0)
            std::memcpy(input_buf, input, input_size);
    }

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume();

  private:
    Ctx &ctx;
    PeiOpcode op;
    Addr vaddr;
    unsigned input_size;
    std::uint8_t input_buf[max_operand_bytes] = {};
    OnComplete on_complete;
};

/**
 * Awaiter for streaming loads: touches a block only the first time
 * the stream enters it (sequential array scans issue one timing load
 * per 64 B block, the access pattern hardware prefetchers and OoO
 * cores overlap trivially).
 */
class StreamLoadAwaiter
{
  public:
    StreamLoadAwaiter(Ctx &ctx, Addr vaddr, Addr &last_block)
        : ctx(ctx), vaddr(vaddr), last_block(last_block)
    {}

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume();

  private:
    Ctx &ctx;
    Addr vaddr;
    Addr &last_block;
    bool skip = false;
};

/** Awaiter for drain(): resumes when the window is empty. */
class DrainAwaiter
{
  public:
    explicit DrainAwaiter(Ctx &ctx) : ctx(ctx) {}

    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}

  private:
    Ctx &ctx;
};

/** Awaiter for pfence(). */
class PfenceAwaiter
{
  public:
    explicit PfenceAwaiter(Ctx &ctx) : ctx(ctx) {}

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {}

  private:
    Ctx &ctx;
};

} // namespace detail

/** Per-thread execution context bound to one core. */
class Ctx
{
  public:
    Ctx(System &sys, unsigned core_id) : sys_(sys), core_id(core_id) {}

    System &sys() { return sys_; }
    Core &core() { return sys_.core(core_id); }
    unsigned coreId() const { return core_id; }

    // ---- functional (no simulated time) ----

    /** Functional read of a POD value. */
    template <typename T>
    T
    fread(Addr vaddr) const
    {
        return sys_.memory().read<T>(vaddr);
    }

    /** Functional write of a POD value. */
    template <typename T>
    void
    fwrite(Addr vaddr, const T &value)
    {
        sys_.memory().write<T>(vaddr, value);
    }

    // ---- timing operations ----

    /** Blocking load (no value). */
    detail::MemOpAwaiter load(Addr vaddr) { return {*this, vaddr, false}; }

    /** Blocking load returning the value at completion time. */
    template <typename T>
    detail::TypedLoadAwaiter<T>
    loadValue(Addr vaddr)
    {
        return {*this, vaddr};
    }

    /** Blocking store (functional data via fwrite). */
    detail::MemOpAwaiter store(Addr vaddr) { return {*this, vaddr, true}; }

    /** Async load: returns once issued; completion frees the slot. */
    detail::AsyncMemOpAwaiter loadAsync(Addr vaddr)
    {
        return {*this, vaddr, false};
    }

    /** Async store. */
    detail::AsyncMemOpAwaiter storeAsync(Addr vaddr)
    {
        return {*this, vaddr, true};
    }

    /** Cursor state for streamLoad(). */
    struct StreamCursor
    {
        Addr last_block = invalid_addr;
    };

    /**
     * Streaming async load: issues a timing load only when @p vaddr
     * enters a block the cursor has not touched yet.
     */
    detail::StreamLoadAwaiter
    streamLoad(Addr vaddr, StreamCursor &cursor)
    {
        return {*this, vaddr, cursor.last_block};
    }

    /** Blocking PEI; returns the completed packet (with outputs). */
    detail::PeiAwaiter
    pei(PeiOpcode op, Addr vaddr, const void *input, unsigned input_size)
    {
        return {*this, op, vaddr, input, input_size};
    }

    /** Async PEI (fire-and-forget; outputs discarded). */
    detail::AsyncPeiAwaiter<>
    peiAsync(PeiOpcode op, Addr vaddr, const void *input = nullptr,
             unsigned input_size = 0)
    {
        return {*this, op, vaddr, input, input_size};
    }

    /** Async PEI whose completed packet is handed to @p fn. */
    template <typename F>
    detail::AsyncPeiAwaiter<F>
    peiAsyncCb(PeiOpcode op, Addr vaddr, const void *input,
               unsigned input_size, F fn)
    {
        return {*this, op, vaddr, input, input_size, std::move(fn)};
    }

    // Typed PEI conveniences matching Table 1.

    /** 8-byte atomic increment of the counter at @p vaddr. */
    detail::AsyncPeiAwaiter<> inc64(Addr vaddr)
    {
        return peiAsync(PeiOpcode::Inc64, vaddr);
    }

    /** 8-byte atomic min: *vaddr = min(*vaddr, @p value). */
    detail::AsyncPeiAwaiter<>
    min64(Addr vaddr, std::uint64_t value)
    {
        return peiAsync(PeiOpcode::Min64, vaddr, &value, sizeof(value));
    }

    /** Atomic double add: *vaddr += @p delta. */
    detail::AsyncPeiAwaiter<>
    fadd(Addr vaddr, double delta)
    {
        return peiAsync(PeiOpcode::FaddDouble, vaddr, &delta,
                        sizeof(delta));
    }

    /** Model a computation burst of @p cycles core cycles. */
    DelayAwaiter compute(std::uint64_t cycles)
    {
        return {sys_.eventQueue(), cycles};
    }

    /** Wait for all of this thread's async operations to retire. */
    detail::DrainAwaiter drain() { return detail::DrainAwaiter{*this}; }

    /** PIM memory fence (paper §3.2). */
    detail::PfenceAwaiter pfence() { return detail::PfenceAwaiter{*this}; }

  private:
    friend class detail::MemOpAwaiter;
    friend class detail::AsyncMemOpAwaiter;
    friend class detail::StreamLoadAwaiter;
    friend class detail::PeiAwaiter;
    template <typename>
    friend class detail::AsyncPeiAwaiter;
    friend class detail::DrainAwaiter;
    friend class detail::PfenceAwaiter;

    /**
     * Issue a translated timing access; @p done on completion.
     * Templated on the callback's concrete type so the TLB-defer
     * closure wraps the raw (small) lambda, not a full-width
     * Continuation — which could never fit inside another one.
     */
    template <typename Done>
    void
    issueAccess(Addr vaddr, bool is_write, Done done)
    {
        Core &c = core();
        if (is_write)
            c.countStore();
        else
            c.countLoad();
        const Ticks tlb_lat = c.translateLatency(vaddr);
        const Addr paddr = sys_.memory().translate(vaddr);
        if (tlb_lat == 0) {
            sys_.caches().access(core_id, paddr, is_write, std::move(done));
            return;
        }
        sys_.eventQueue().schedule(
            tlb_lat, [this, paddr, is_write, done = std::move(done)]() mutable {
                sys_.caches().access(core_id, paddr, is_write,
                                     std::move(done));
            });
    }

    /** Issue a translated PEI; @p done receives the completion. */
    void
    issuePei(PeiOpcode op, Addr vaddr, const void *input,
             unsigned input_size, Pmu::DoneFn done)
    {
        Core &c = core();
        c.countPei();
        const Ticks tlb_lat = c.translateLatency(vaddr);
        const Addr paddr = sys_.memory().translate(vaddr);
        // Register with the PMU immediately (pfence sees the PEI in
        // issue order); the TLB-miss penalty defers the pipeline.
        sys_.pmu().executePei(core_id, op, paddr, input, input_size,
                              std::move(done), tlb_lat);
    }

    System &sys_;
    unsigned core_id;
};

namespace detail
{

inline void
MemOpAwaiter::await_suspend(std::coroutine_handle<> h)
{
    ctx.core().acquireSlot([this, h] {
        ctx.issueAccess(vaddr, is_write, [this, h] {
            ctx.core().releaseSlot();
            resumeLive(h);
        });
    });
}

template <typename T>
T
TypedLoadAwaiter<T>::await_resume()
{
    // Value observed at completion time.
    return ctx.fread<T>(vaddr);
}

inline bool
AsyncMemOpAwaiter::await_ready()
{
    if (ctx.core().windowFull())
        return false;
    ctx.core().acquireSlot([] {});
    return true;
}

inline void
AsyncMemOpAwaiter::await_suspend(std::coroutine_handle<> h)
{
    // Resumed (asynchronously) once a slot frees up; the slot is
    // handed over inside releaseSlot().
    ctx.core().acquireSlot([h] { resumeLive(h); });
}

inline void
AsyncMemOpAwaiter::await_resume()
{
    // Slot held; issue the operation, completion frees the slot.
    Ctx *c = &ctx;
    c->issueAccess(vaddr, is_write, [c] { c->core().releaseSlot(); });
}

inline void
PeiAwaiter::await_suspend(std::coroutine_handle<> h)
{
    ctx.core().acquireSlot([this, h] {
        ctx.issuePei(op, vaddr, input_buf, input_size,
                     [this, h](const PimPacket &pkt) {
                         result = pkt;
                         ctx.core().releaseSlot();
                         resumeLive(h);
                     });
    });
}

template <typename OnComplete>
bool
AsyncPeiAwaiter<OnComplete>::await_ready()
{
    if (ctx.core().windowFull())
        return false;
    ctx.core().acquireSlot([] {});
    return true;
}

template <typename OnComplete>
void
AsyncPeiAwaiter<OnComplete>::await_suspend(std::coroutine_handle<> h)
{
    ctx.core().acquireSlot([h] { resumeLive(h); });
}

template <typename OnComplete>
void
AsyncPeiAwaiter<OnComplete>::await_resume()
{
    Ctx *c = &ctx;
    c->issuePei(op, vaddr, input_buf, input_size,
                [c, fn = std::move(on_complete)](const PimPacket &pkt) mutable {
                    fn(pkt);
                    c->core().releaseSlot();
                });
}

inline bool
StreamLoadAwaiter::await_ready()
{
    const Addr blk = vaddr >> block_shift;
    if (last_block == blk) {
        skip = true;
        return true; // already streamed through this block
    }
    last_block = blk;
    if (ctx.core().windowFull())
        return false;
    ctx.core().acquireSlot([] {});
    return true;
}

inline void
StreamLoadAwaiter::await_suspend(std::coroutine_handle<> h)
{
    ctx.core().acquireSlot([h] { resumeLive(h); });
}

inline void
StreamLoadAwaiter::await_resume()
{
    if (skip)
        return;
    Ctx *c = &ctx;
    c->issueAccess(vaddr, false, [c] { c->core().releaseSlot(); });
}

inline bool
DrainAwaiter::await_ready()
{
    return ctx.core().inFlight() == 0;
}

inline void
DrainAwaiter::await_suspend(std::coroutine_handle<> h)
{
    ctx.core().waitForDrain([h] { resumeLive(h); });
}

inline void
PfenceAwaiter::await_suspend(std::coroutine_handle<> h)
{
    // pfence blocks the issuing core; its own async PEIs must have
    // entered the PEI pipeline, which issue-order guarantees, and
    // the PMU-side tracking covers them from issue to retirement.
    ctx.sys().pmu().pfence([h] { resumeLive(h); });
}

} // namespace detail

} // namespace pei

#endif // PEISIM_RUNTIME_CONTEXT_HH
