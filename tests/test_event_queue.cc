/**
 * @file
 * Unit tests for the discrete-event engine: ordering, determinism,
 * and coroutine plumbing — including op-for-op equivalence of the
 * slab-arena queue against a naive std::function reference queue,
 * stop-request cancellation latency, the inline-continuation /
 * slot-pool building blocks, and the move-free event path (memcpy
 * moves of trivially copyable closures, events run in their arena
 * slot).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional> // stdfunction-allowed: naive reference queue under test
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_index.hh"
#include "sim/slot_pool.hh"
#include "sim/task.hh"

namespace pei
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(1, [&] {
            eq.schedule(1, [&] { ++fired; });
            ++fired;
        });
        ++fired;
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = max_tick;
    eq.schedule(7, [&] { eq.schedule(0, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedCount(), 42u);
}

TEST(EventQueue, StopRequestHonoredWithinCadence)
{
    // Cancellation latency is bounded: run() polls the stop flag
    // every stop_check_interval events, so at most one full interval
    // executes after the request lands.
    EventQueue eq;
    std::uint64_t fired = 0;
    const std::uint64_t total = 8 * EventQueue::stop_check_interval;
    for (std::uint64_t i = 0; i < total; ++i) {
        eq.schedule(1, [&eq, &fired] {
            ++fired;
            if (fired == 123)
                eq.requestStop();
        });
    }
    eq.run();
    EXPECT_GE(fired, 123u);
    EXPECT_LE(fired, 123 + EventQueue::stop_check_interval);
    eq.clearStopRequest();
    eq.run();
    EXPECT_EQ(fired, total);
}

TEST(EventQueue, RunOutcomeReportsBreakReason)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    EventQueue::RunOutcome out = eq.run();
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Drained);
    EXPECT_FALSE(out.stopped());

    eq.schedule(20, [] {});

    // A stop request used to look like a drain to raw-loop callers;
    // the outcome makes the cancellation visible and propagatable.
    eq.requestStop();
    out = eq.run();
    EXPECT_EQ(out.executed, 0u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Stopped);
    EXPECT_TRUE(out.stopped());
    EXPECT_THROW(out.throwIfStopped(), SimulationStopped);
    EXPECT_FALSE(eq.empty());

    eq.clearStopRequest();
    out = eq.run();
    EXPECT_EQ(out.executed, 1u);
    EXPECT_EQ(out.why, EventQueue::RunBreak::Drained);
    out.throwIfStopped(); // no-op on a clean drain
}

/**
 * The pre-refactor event queue, reimplemented naively: a binary heap
 * of fat nodes each holding a std::function.  Used as the ordering
 * oracle for the slab-arena queue — both are driven op-for-op below
 * and must execute identical sequences.
 */
class NaiveReferenceQueue
{
  public:
    Tick now() const { return cur_tick; }

    void
    schedule(Ticks delay, std::function<void()> fn)
    {
        events.push_back(Ev{cur_tick + delay, next_seq++, std::move(fn)});
        std::push_heap(events.begin(), events.end(), Later{});
    }

    bool
    runOne()
    {
        if (events.empty())
            return false;
        std::pop_heap(events.begin(), events.end(), Later{});
        Ev ev = std::move(events.back());
        events.pop_back();
        cur_tick = ev.when;
        ev.fn();
        return true;
    }

    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (runOne())
            ++n;
        return n;
    }

    bool empty() const { return events.empty(); }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Ev> events;
    Tick cur_tick = 0;
    std::uint64_t next_seq = 0;
};

/**
 * Deterministic event cascade: each event logs its id and spawns
 * children by fixed arithmetic rules, mixing same-tick (delay 0)
 * bursts with short delays so FIFO tie-breaking, nested scheduling,
 * and slab-slot reuse all get exercised.  Delays are (id % 5) *
 * @p stride, so a stride of 64 or more also sends events beyond the
 * queue's 256-tick wheel.
 */
template <typename Queue>
void
spawnCascade(Queue &q, std::vector<std::uint64_t> &log, std::uint64_t id,
             int depth, Ticks stride)
{
    q.schedule(id % 5 * stride, [&q, &log, id, depth, stride] {
        log.push_back(id);
        if (depth < 3 && id % 3 == 0)
            spawnCascade(q, log, id * 7 + 1, depth + 1, stride);
        if (depth < 3 && id % 4 == 1)
            spawnCascade(q, log, id * 11 + 2, depth + 1, stride);
    });
}

/** Drive both queues op-for-op with cascades of delay @p stride. */
void
expectMatchesNaiveReference(Ticks stride)
{
    EventQueue arena_q;
    NaiveReferenceQueue naive_q;
    std::vector<std::uint64_t> arena_log, naive_log;

    // Several rounds of wide same-tick bursts with partial drains in
    // between: the arena queue cycles slots through its freelist and
    // grows past one chunk while the naive queue heap-allocates every
    // closure.  Their execution orders must stay identical.
    std::uint64_t id = 1;
    for (int round = 0; round < 6; ++round) {
        const int burst = 300 + 100 * round; // up to 800 > one chunk
        for (int i = 0; i < burst; ++i, ++id) {
            spawnCascade(arena_q, arena_log, id, 0, stride);
            spawnCascade(naive_q, naive_log, id, 0, stride);
        }
        // Partial drain so later rounds reuse freed slots mid-queue.
        for (int i = 0; i < burst / 2; ++i) {
            arena_q.runOne();
            naive_q.runOne();
        }
        ASSERT_EQ(arena_log, naive_log) << "diverged in round " << round;
    }
    while (arena_q.runOne()) {}
    naive_q.run();

    EXPECT_EQ(arena_log, naive_log);
    EXPECT_EQ(arena_q.now(), naive_q.now());
    // The bursts above outgrow a single 256-slot chunk, so slab
    // growth (not just first-chunk reuse) is covered.
    EXPECT_GT(arena_q.arenaCapacity(), 256u);
}

TEST(EventQueue, MatchesNaiveReferenceQueueOpForOp)
{
    // Stride 1 keeps every delay inside the wheel; stride 130 gives
    // delays 0, 130, 260, 390 and 520, so events also pass through
    // the far heap and tie with later direct inserts at one tick.
    for (Ticks stride : {Ticks{1}, Ticks{130}}) {
        SCOPED_TRACE(::testing::Message() << "delay stride " << stride);
        expectMatchesNaiveReference(stride);
    }
}

/**
 * Reschedules itself every tick until @p until, logging each beat,
 * so the wheel never empties while far events enter the window and
 * they must migrate rather than wait for a jump.
 */
struct Heartbeat
{
    EventQueue &eq;
    Tick until;
    std::vector<Tick> &ticks;

    void
    beat()
    {
        ticks.push_back(eq.now());
        if (eq.now() < until)
            eq.schedule(1, [this] { beat(); });
    }
};

/** One labelled event as it ran: (tick, id). */
using Ran = std::pair<Tick, int>;

TEST(EventQueue, WindowEdgeDelaysRunInTickOrder)
{
    // From tick 10, delays 257, 256 and 255 (scheduled in that order)
    // straddle the wheel's edge: the last lands in a bucket, the
    // others in the far heap.
    EventQueue eq;
    std::vector<Tick> ticks;
    std::vector<Ran> ran;
    Heartbeat hb{eq, 400, ticks};
    eq.schedule(0, [&hb] { hb.beat(); });
    eq.schedule(10, [&] {
        for (int d : {257, 256, 255}) {
            eq.schedule(static_cast<Ticks>(d), [&, d] {
                ticks.push_back(eq.now());
                ran.emplace_back(eq.now(), d);
            });
        }
    });
    eq.run();
    EXPECT_EQ(ran, (std::vector<Ran>{{265, 255}, {266, 256}, {267, 257}}));
    EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()))
        << "time ran backwards";
    EXPECT_EQ(eq.now(), 400u);
}

TEST(EventQueue, MigratedEventRunsBeforeLaterSameTickInserts)
{
    // Event 0 is scheduled for tick 300 while 300 is beyond the
    // window, so it waits in the far heap.  Events 1 and 2 target the
    // same tick after it entered the window, straight into its
    // bucket.  They run in schedule order: 0, 1, 2.
    EventQueue eq;
    std::vector<Tick> ticks;
    std::vector<Ran> ran;
    Heartbeat hb{eq, 400, ticks};
    auto log = [&](int id) {
        return [&, id] { ran.emplace_back(eq.now(), id); };
    };
    eq.schedule(0, [&hb] { hb.beat(); });
    eq.scheduleAt(300, log(0));
    eq.scheduleAt(100, [&] { eq.scheduleAt(300, log(1)); });
    eq.scheduleAt(299, [&] { eq.schedule(1, log(2)); });
    eq.run();
    EXPECT_EQ(ran, (std::vector<Ran>{{300, 0}, {300, 1}, {300, 2}}));
    EXPECT_TRUE(std::is_sorted(ticks.begin(), ticks.end()))
        << "time ran backwards";
}

TEST(EventQueue, IdleGapsAndBucketWrapKeepOrder)
{
    // With only far events pending, the queue jumps across idle gaps
    // far longer than the window, up to the last representable tick.
    // From tick 1000 (bucket 232), +255 lands in bucket 231, the last
    // one the circular scan reaches, and +30 from there wraps the
    // index past 255.  Same-tick far events keep their schedule order.
    EventQueue eq;
    std::vector<Ran> ran;
    auto log = [&](int id) {
        return [&, id] { ran.emplace_back(eq.now(), id); };
    };
    eq.scheduleAt(max_tick, log(8));
    eq.scheduleAt(70000, log(7));
    eq.scheduleAt(5000, log(5));
    eq.scheduleAt(1000, [&] {
        ran.emplace_back(eq.now(), 0);
        eq.schedule(600, log(4));
        eq.schedule(255, [&] {
            ran.emplace_back(eq.now(), 2);
            eq.schedule(30, log(3));
        });
        eq.schedule(0, log(1));
    });
    eq.scheduleAt(5000, log(6));
    eq.run();
    EXPECT_EQ(ran, (std::vector<Ran>{{1000, 0},
                                     {1000, 1},
                                     {1255, 2},
                                     {1285, 3},
                                     {1600, 4},
                                     {5000, 5},
                                     {5000, 6},
                                     {70000, 7},
                                     {max_tick, 8}}));
    EXPECT_EQ(eq.now(), max_tick);
    EXPECT_TRUE(eq.empty());
}

TEST(SlotPool, HandlesAreStableAndFreelistRecycles)
{
    SlotPool<std::string> pool;
    std::vector<std::uint32_t> handles;
    for (int i = 0; i < 600; ++i) // forces multi-chunk growth
        handles.push_back(pool.emplace("v" + std::to_string(i)));
    EXPECT_EQ(pool.liveCount(), 600u);
    EXPECT_GE(pool.capacity(), 600u);

    std::string &anchor = pool[handles[5]];
    for (int i = 100; i < 200; ++i)
        pool.erase(handles[i]);
    // Freed slots are recycled before any new chunk is allocated.
    const std::uint32_t before = pool.capacity();
    for (int i = 0; i < 100; ++i)
        pool.emplace("recycled");
    EXPECT_EQ(pool.capacity(), before);
    // Chunked storage never relocates: the reference from before the
    // churn still addresses the same element.
    EXPECT_EQ(&anchor, &pool[handles[5]]);
    EXPECT_EQ(anchor, "v5");
}

TEST(SlotPool, DestroysLiveSlotsAtTeardown)
{
    // Cancelled simulations tear pools down with transactions still
    // parked; their elements must still be destroyed exactly once.
    int destroyed = 0;
    struct Probe
    {
        int *counter;
        ~Probe() { ++*counter; }
    };
    {
        SlotPool<Probe> pool;
        pool.emplace(Probe{&destroyed});
        destroyed = 0; // ignore temporaries from emplace-by-move
        const auto h = pool.emplace(Probe{&destroyed});
        destroyed = 0;
        pool.erase(h);
        EXPECT_EQ(destroyed, 1);
        destroyed = 0;
    }
    EXPECT_EQ(destroyed, 1); // the still-live first slot
}

TEST(SlotIndex, MatchesMapUnderChurnAtFullCapacity)
{
    // Keys 0..47 into a 16-key index: long probe runs, deletes in
    // their middle, key 0, and erases of absent keys.  Every lookup
    // must agree with a plain map after every operation.
    constexpr std::uint32_t capacity = 16;
    constexpr Addr keys = 3 * capacity;
    SlotIndex index(capacity);
    std::map<Addr, std::uint32_t> ref;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Addr key = rng.below(keys);
        if (auto it = ref.find(key); it != ref.end()) {
            EXPECT_EQ(index.erase(key), it->second);
            ref.erase(it);
        } else if (ref.size() < capacity) {
            const auto slot = static_cast<std::uint32_t>(rng.below(1000));
            index.insert(key, slot);
            ref.emplace(key, slot);
        } else {
            EXPECT_EQ(index.erase(key), SlotIndex::npos);
        }
        for (Addr k = 0; k < keys; ++k) {
            const auto it = ref.find(k);
            ASSERT_EQ(index.find(k),
                      it == ref.end() ? SlotIndex::npos : it->second)
                << "key " << k << " after operation " << i;
        }
    }
}

TEST(Continuation, MoveTransfersOwnership)
{
    int fired = 0;
    Continuation a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    Continuation b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EXPECT_EQ(fired, 1);
}

TEST(Continuation, FitsDocumentedBudgetAndForwardsArgs)
{
    // 48-byte budget: six pointer-sized captures fit exactly.
    void *p[6] = {};
    Continuation full([p] { (void)p; });
    full();

    InlineFunction<int(int), 16> addk(
        [base = 40](int x) { return base + x; });
    EXPECT_EQ(addk(2), 42);
}

/** Builds the usual stage closure: `this` plus a 32-bit handle. */
struct Stage
{
    std::vector<std::uint32_t> seen;

    auto
    resume(std::uint32_t handle)
    {
        return [this, handle] { seen.push_back(handle); };
    }
};

// Only a trivially copyable closure converts to an InlineFunction, so
// one holding a nested Continuation or a std::string does not compile.
static_assert(std::is_constructible_v<
              Continuation, decltype(std::declval<Stage &>().resume(0))>);
static_assert(!std::is_constructible_v<
              Continuation, decltype([c = Continuation()]() mutable {
                  c();
              })>);
static_assert(!std::is_constructible_v<
              Continuation, decltype([s = std::string()] { (void)s; })>);

TEST(Continuation, TrivialClosureRelocatesByCopy)
{
    Stage stage;
    Continuation hops[3];
    hops[0] = stage.resume(0xabcd1234u);
    for (int i = 0; i < 1000; ++i)
        hops[(i + 1) % 3] = std::move(hops[i % 3]);
    Continuation &last = hops[1000 % 3];
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(static_cast<bool>(hops[i]), &hops[i] == &last);
    last();
    EXPECT_EQ(stage.seen, (std::vector<std::uint32_t>{0xabcd1234u}));
}

TEST(EventQueue, ArenaGrowsUnderARunningCallback)
{
    // The first event takes the arena's first slot and, while it
    // runs, schedules two chunks' worth of events, so the arena
    // grows twice under it.  It reads its own captures afterwards.
    EventQueue eq;
    std::vector<Ran> ran, expected;
    const int fanout = 2 * 256;
    eq.schedule(5, [&eq, &ran, &expected, fanout] {
        for (int i = 0; i < fanout; ++i) {
            const Ticks delay = static_cast<Ticks>(i % 7) * 50; // to 300
            eq.schedule(delay, [&eq, &ran, i] {
                ran.emplace_back(eq.now(), i);
            });
            expected.emplace_back(eq.now() + delay, i);
        }
        ran.emplace_back(eq.now(), -fanout);
    });
    ASSERT_TRUE(eq.runOne());
    EXPECT_GT(eq.arenaCapacity(), static_cast<std::uint32_t>(fanout));
    ASSERT_EQ(ran, (std::vector<Ran>{{5, -fanout}}));
    ran.clear();
    eq.run();
    // (tick, seq) order: by tick, and by scheduling order within one.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Ran &a, const Ran &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(ran, expected);
}

TEST(EventQueue, ThrowingCallbackFreesItsSlot)
{
    EventQueue eq;
    std::vector<int> order;
    std::uint32_t capacity = 0;
    for (int round = 0; round < 1000; ++round) {
        eq.schedule(1, [] { throw std::runtime_error("callback failed"); });
        eq.schedule(1, [&order, round] { order.push_back(round); });
        EXPECT_THROW(eq.runOne(), std::runtime_error);
        ASSERT_TRUE(eq.runOne());
        if (round == 0)
            capacity = eq.arenaCapacity();
        ASSERT_EQ(eq.arenaCapacity(), capacity) << "round " << round;
    }
    EXPECT_TRUE(eq.empty());
    ASSERT_EQ(order.size(), 1000u);
    for (int round = 0; round < 1000; ++round)
        EXPECT_EQ(order[round], round);
}

Task
simpleCoro(EventQueue &eq, int &stage)
{
    stage = 1;
    co_await DelayAwaiter(eq, 10);
    stage = 2;
    co_await DelayAwaiter(eq, 10);
    stage = 3;
}

TEST(Task, RunsEagerlyAndSuspends)
{
    EventQueue eq;
    int stage = 0;
    Task t = simpleCoro(eq, stage);
    EXPECT_EQ(stage, 1); // ran until the first co_await
    EXPECT_FALSE(t.done());
    eq.run();
    EXPECT_EQ(stage, 3);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(eq.now(), 20u);
}

Task
inner(EventQueue &eq, std::vector<int> &log)
{
    log.push_back(1);
    co_await DelayAwaiter(eq, 5);
    log.push_back(2);
}

Task
outer(EventQueue &eq, std::vector<int> &log)
{
    Task t = inner(eq, log);
    co_await t;
    log.push_back(3);
}

TEST(Task, AwaitsSubTask)
{
    EventQueue eq;
    std::vector<int> log;
    Task t = outer(eq, log);
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Task, ZeroDelayAwaitIsReady)
{
    EventQueue eq;
    int stage = 0;
    auto coro = [](EventQueue &eq, int &s) -> Task {
        co_await DelayAwaiter(eq, 0); // ready immediately, no suspend
        s = 1;
    };
    Task t = coro(eq, stage);
    EXPECT_EQ(stage, 1);
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(eq.empty());
}

#ifndef NDEBUG
TEST(TaskDeathTest, ResumingDestroyedFrameIsCaught)
{
    // Classic discrete-event lifetime bug: an event holding a
    // coroutine resumption outlives the coroutine.  Debug builds
    // route every scheduled resumption through resumeLive(), which
    // panics instead of resuming freed memory.
    EventQueue eq;
    {
        auto coro = [](EventQueue &q) -> Task {
            co_await DelayAwaiter(q, 5);
        };
        Task t = coro(eq);
        EXPECT_FALSE(t.done());
    } // frame destroyed; its resumption is still scheduled
    EXPECT_DEATH(eq.run(), "destroyed");
}
#endif

} // namespace
} // namespace pei
