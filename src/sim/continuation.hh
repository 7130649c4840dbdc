/**
 * @file
 * Fixed-capacity inline-storage callables for the scheduling hot path.
 *
 * Every latency edge in the simulator is expressed as a callback
 * handed to the EventQueue or parked in a component (MSHR waiter
 * lists, directory lock queues, transaction records).  With
 * std::function, nearly all of those closures exceed the 16-byte
 * small-object buffer of libstdc++ and heap-allocate — once per
 * event, millions of times per run.  InlineFunction replaces that
 * with a caller-chosen inline capture budget enforced at compile
 * time: a closure either fits in the inline storage or the build
 * fails, so the hot path can never silently regress into malloc.
 *
 * Design rules that follow from the fixed capacity:
 *  - A lambda can never capture a callable of the same capacity
 *    (it would not fit inside itself).  Continuations are therefore
 *    *parked* in component-owned records (MSHR entries, transaction
 *    slots) and stage lambdas capture only `{this, handle}`-sized
 *    state.
 *  - InlineFunction is move-only; moving relocates the closure into
 *    the destination buffer and leaves the source null.  A trivially
 *    copyable closure (relocates_by_copy, which covers every
 *    `{this, handle}` stage lambda) relocates by one fixed-size
 *    memcpy of the whole buffer and needs no destructor call; any
 *    other closure, such as one holding a nested InlineFunction,
 *    goes through its move constructor and destructor.
 */

#ifndef PEISIM_SIM_CONTINUATION_HH
#define PEISIM_SIM_CONTINUATION_HH

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace pei
{

template <typename Signature, std::size_t Capacity>
class InlineFunction;

/**
 * True when InlineFunction moves a closure of type @p Fn by copying
 * its storage bytes and destroys it by doing nothing.
 */
template <typename Fn>
inline constexpr bool relocates_by_copy = std::is_trivially_copyable_v<Fn>;

/**
 * Move-only type-erased callable with @p Capacity bytes of inline
 * storage and no heap fallback.  Construction from a closure larger
 * than the budget is a compile error (static_assert), as is a
 * closure whose move constructor may throw or whose alignment
 * exceeds pointer alignment.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::remove_cvref_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f)
    {
        static_assert(sizeof(Fn) <= Capacity,
                      "closure exceeds this InlineFunction's inline-capture "
                      "budget: shrink the captures or park the state in a "
                      "component-owned record and capture its handle");
        static_assert(alignof(Fn) <= alignof(void *),
                      "closure is over-aligned for inline storage");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "closure must be nothrow-move-constructible so queue "
                      "and pool relocation cannot throw");
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
        ops = &OpsFor<Fn>::table;
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        panic_if(!ops, "invoking a null InlineFunction");
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

  private:
    /** relocate and destroy are null for a relocates_by_copy
     *  closure: a memcpy relocates it, and it needs no destructor. */
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct src's closure into dst, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    struct OpsFor
    {
        static R
        invoke(void *s, Args &&...args)
        {
            return (*static_cast<Fn *>(s))(std::forward<Args>(args)...);
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            Fn *from = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        }

        static void destroy(void *s) noexcept { static_cast<Fn *>(s)->~Fn(); }

        static constexpr Ops table =
            relocates_by_copy<Fn> ? Ops{&invoke, nullptr, nullptr}
                                  : Ops{&invoke, &relocate, &destroy};
    };

    void
    reset() noexcept
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(storage);
            ops = nullptr;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        if (other.ops) {
            if (other.ops->relocate)
                other.ops->relocate(storage, other.storage);
            else
                std::memcpy(storage, other.storage, Capacity);
            ops = std::exchange(other.ops, nullptr);
        }
    }

    alignas(void *) unsigned char storage[Capacity];
    const Ops *ops = nullptr;
};

/**
 * The simulator-wide scheduling callback: every EventQueue event and
 * every component-parked completion (MSHR waiter, lock grant, vault
 * completion, drain/pfence wakeup) is one of these.  The 48-byte
 * budget fits every stage closure in the codebase — typically
 * `{this, slot-handle}` or `{this, core, paddr, is_write}` — with
 * room for one nested small callable (e.g. a `[this, h]` coroutine
 * resumption forwarded through a transaction record).
 */
using Continuation = InlineFunction<void(), 48>;

} // namespace pei

#endif // PEISIM_SIM_CONTINUATION_HH
