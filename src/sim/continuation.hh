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
 *  - InlineFunction holds only trivially copyable closures; the
 *    converting constructor's constraint rejects any other, so a
 *    closure can never capture another InlineFunction.  Continuations
 *    are therefore *parked* in component-owned records (MSHR entries,
 *    transaction slots) and stage lambdas capture only
 *    `{this, handle}`-sized state.
 *  - InlineFunction is move-only; a move is one fixed-size memcpy of
 *    the whole buffer that leaves the source null, and destruction
 *    runs no closure code.
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
 * Move-only type-erased callable with @p Capacity bytes of inline
 * storage and no heap fallback.  Only a trivially copyable closure
 * converts to it (std::is_constructible_v is false for any other);
 * one larger than the budget or aligned beyond a pointer fails a
 * static_assert.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    static constexpr std::size_t capacity = Capacity;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename Fn = std::remove_cvref_t<F>>
        requires(!std::is_same_v<Fn, InlineFunction> &&
                 std::is_invocable_r_v<R, Fn &, Args...> &&
                 std::is_trivially_copyable_v<Fn>)
    InlineFunction(F &&f) noexcept : invoke(&invokeAs<Fn>)
    {
        static_assert(sizeof(Fn) <= Capacity,
                      "closure exceeds this InlineFunction's inline-capture "
                      "budget: shrink the captures or park the state in a "
                      "component-owned record and capture its handle");
        static_assert(alignof(Fn) <= alignof(void *),
                      "closure is over-aligned for inline storage");
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other)
            moveFrom(other);
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    /** True if a callable is held. */
    explicit operator bool() const noexcept { return invoke != nullptr; }

    R
    operator()(Args... args)
    {
        panic_if(!invoke, "invoking a null InlineFunction");
        return invoke(storage, std::forward<Args>(args)...);
    }

  private:
    template <typename Fn>
    static R
    invokeAs(void *s, Args &&...args)
    {
        return (*static_cast<Fn *>(s))(std::forward<Args>(args)...);
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        std::memcpy(storage, other.storage, Capacity);
        invoke = std::exchange(other.invoke, nullptr);
    }

    alignas(void *) unsigned char storage[Capacity];
    R (*invoke)(void *, Args &&...) = nullptr;
};

/**
 * The simulator-wide scheduling callback: every EventQueue event and
 * every component-parked completion (MSHR waiter, lock grant, vault
 * completion, drain/pfence wakeup) is one of these.  The 48-byte
 * budget fits every stage closure in the codebase — typically
 * `{this, slot-handle}` or `{this, core, paddr, is_write}` — with
 * room for one nested raw closure (e.g. a `[this, h]` coroutine
 * resumption carried through a TLB-miss deferral).
 */
using Continuation = InlineFunction<void(), 48>;

} // namespace pei

#endif // PEISIM_SIM_CONTINUATION_HH
