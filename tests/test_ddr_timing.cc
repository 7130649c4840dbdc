/**
 * @file
 * Directed DDR channel timing tests with hand-computed tick
 * arithmetic: the rolling four-activate tFAW window, same-group
 * tRRD_L spacing, projected-activate gating on row conflicts (the
 * start tick the pick computes for a miss agrees with the activate
 * issue() places), and retry re-arm hygiene (stale events no-op
 * instead of waking the scheduler spuriously), write-drain
 * hysteresis, and lazy refresh catch-up over idle gaps.  Last, the
 * per-bank FR-FCFS pick is driven op for op against the linear-scan
 * controller it replaced, on DDR and vault timing.
 *
 * Timing config (1 tick = 0.25 ns): tCL = tRCD = tRP = 40t,
 * tRAS = 32t, tRRD_S = 10t, tRRD_L = 20t, tFAW = 300t, burst = 4t.
 * Refresh stays out of every test's horizon except under refreshCfg,
 * and drainCfg narrows the write-drain watermarks.  One channel, 4
 * bank groups x 4 banks.  Note the cold-start quirk shared with the
 * sequential model: any/group last-activate trackers start at tick 0,
 * so the very first activate waits out tRRD_L (tick 20).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/ddr.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace pei
{
namespace
{

DdrConfig
tinyCfg()
{
    DdrConfig cfg;
    cfg.channels = 1;
    cfg.bank_groups = 4;
    cfg.banks_per_group = 4;
    cfg.row_bytes = 8192;
    cfg.tCL_ns = 10.0;    // 40 ticks
    cfg.tRCD_ns = 10.0;   // 40 ticks
    cfg.tRP_ns = 10.0;    // 40 ticks
    cfg.tRAS_ns = 8.0;    // 32 ticks
    cfg.tRRD_S_ns = 2.5;  // 10 ticks
    cfg.tRRD_L_ns = 5.0;  // 20 ticks
    cfg.tFAW_ns = 75.0;   // 300 ticks
    cfg.tREFI_ns = 1.0e9; // no refresh inside any test
    cfg.chan_gbps = 64.0; // burst = 64 B / 64 GB/s = 1 ns = 4 ticks
    return cfg;
}

class DdrTimingTest : public ::testing::Test
{
  protected:
    explicit DdrTimingTest(const DdrConfig &c = tinyCfg()) : cfg(c) {}

    /** One channel, 16 banks: blk = (row << 11) | (rowblk << 4) | bank. */
    Addr
    addrOf(unsigned bank, std::uint64_t row) const
    {
        return ((row << 11) | bank) << block_shift;
    }

    void
    read(unsigned bank, std::uint64_t row)
    {
        chan.accessBlock(addrOf(bank, row), false,
                         [this] { done.push_back(eq.now()); });
    }

    /** Access logged under @p tag in tagged (reads and writes alike). */
    void
    access(unsigned bank, std::uint64_t row, bool write, char tag)
    {
        chan.accessBlock(addrOf(bank, row), write, [this, tag] {
            tagged.emplace_back(tag, eq.now());
        });
    }

    DdrConfig cfg;
    AddrMap map{1, 1, 16, 8192};
    EventQueue eq;
    StatRegistry stats;
    DdrChannel chan{eq, cfg, map, 0, stats};
    std::vector<Tick> done; ///< completion tick of each read, in order
    std::vector<std::pair<char, Tick>> tagged; ///< see access()
};

TEST_F(DdrTimingTest, FawWindowGatesFifthActivate)
{
    // Four activates to distinct groups pace at tRRD_S (20, 30, 40,
    // 50); the fifth must wait for the window to roll: act >= 20 +
    // tFAW = 320.  Completion = act + tRCD + tCL + burst (the bus is
    // long free by then).
    for (unsigned b : {0u, 4u, 8u, 12u, 1u})
        read(b, 0);
    eq.run();
    EXPECT_EQ(done, (std::vector<Tick>{104, 114, 124, 134, 404}));
    // One retry per release tick, each firing live: no storm.
    EXPECT_EQ(chan.retryArms(), 5u);
    EXPECT_EQ(chan.retryFires(), 5u);
    EXPECT_EQ(chan.retryStale(), 0u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(DdrTimingTest, SameGroupActivatesHonorTrrdL)
{
    // Banks 0 and 1 share group 0: the second activate waits tRRD_L
    // (20 + 20 = 40), not tRRD_S (which would allow 30).  Completions:
    // 20 + 80 + 4 = 104, then max(40 + 80, 104) + 4 ... = 124.
    read(0, 0);
    read(1, 0);
    eq.run();
    EXPECT_EQ(done, (std::vector<Tick>{104, 124}));
    EXPECT_EQ(chan.retryArms(), 2u);
    EXPECT_EQ(chan.retryFires(), 2u);
    EXPECT_EQ(chan.retryStale(), 0u);
}

TEST_F(DdrTimingTest, ConflictGatesProjectedActivateNotStart)
{
    // Open row 0 on bank 0 (activate at 20, done 104), then at 104
    // activate bank 4 (different group, act = 104) and request row 1
    // on bank 0.  The conflict's precharge may start at 104: its
    // *projected activate* 104 + tRP = 144 already clears
    // any_last_act + tRRD_S = 114 and group 0's tRRD_L = 40.  Gating
    // the start tick instead (the old bug) would stall the precharge
    // to 114 and push the completion from 228 to 238 via an extra
    // retry wakeup.
    read(0, 0);
    eq.run();
    ASSERT_EQ(done, (std::vector<Tick>{104}));

    read(4, 0); // issues at 104: activate 104, data 184..188
    read(0, 1); // conflict: pre 104, act 144, data 224..228
    eq.run();
    EXPECT_EQ(done, (std::vector<Tick>{104, 188, 228}));
    // Only the cold-start arm; both phase-B requests issued on
    // arrival with no retry in between.
    EXPECT_EQ(chan.retryArms(), 1u);
    EXPECT_EQ(chan.retryFires(), 1u);
    EXPECT_EQ(chan.retryStale(), 0u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(DdrTimingTest, EarlierReArmLeavesExactlyOneStaleRetry)
{
    // Saturate the tFAW window (activates 20, 30, 40, 50), then queue
    // bank 5 at t=60 — not issuable until 320, retry armed there.  A
    // row hit on bank 4 arriving at t=70 becomes issuable at 114
    // (bank free), re-arming the retry *earlier*; the abandoned tick-
    // 320 event must drain as a stale no-op, not a spurious wakeup.
    for (unsigned b : {0u, 4u, 8u, 12u})
        read(b, 0);
    eq.schedule(60, [this] { read(5, 0); });
    eq.schedule(70, [this] { read(4, 0); });
    eq.run();

    // Burst completions 104..134; the row hit at 114 finishes at 158
    // (tCL + burst); bank 5 activates at 320 and finishes at 404.
    EXPECT_EQ(done, (std::vector<Tick>{104, 114, 124, 134, 158, 404}));
    EXPECT_EQ(chan.retryArms(), 7u);
    EXPECT_EQ(chan.retryFires(), 6u);
    EXPECT_EQ(chan.retryStale(), 1u);
    // The drain invariant: every arm fired or drained stale.
    EXPECT_TRUE(stats.audit().empty());
}

/** Write-drain hysteresis between one and three queued writes. */
DdrConfig
drainCfg()
{
    DdrConfig cfg = tinyCfg();
    cfg.write_drain_low = 1;
    cfg.write_drain_high = 3;
    return cfg;
}

/** Refresh every 1000 ticks, each blocking all banks for 100. */
DdrConfig
refreshCfg()
{
    DdrConfig cfg = tinyCfg();
    cfg.tREFI_ns = 250.0;
    cfg.tRFC_ns = 25.0;
    return cfg;
}

class DdrDrainTest : public DdrTimingTest
{
  protected:
    DdrDrainTest() : DdrTimingTest(drainCfg()) {}
};

class DdrRefreshTest : public DdrTimingTest
{
  protected:
    DdrRefreshTest() : DdrTimingTest(refreshCfg()) {}
};

TEST_F(DdrDrainTest, WritesWaitForHighWatermarkThenDrainToLow)
{
    // Open row 0 on banks 0, 4, 8 and 12 (activates 20..50).
    for (unsigned b : {0u, 4u, 8u, 12u})
        read(b, 0);
    eq.run();
    ASSERT_EQ(done, (std::vector<Tick>{104, 114, 124, 134}));

    // At 1000, with the tFAW window long expired: read a hits bank
    // 0's open row (done 1000 + 40 + 4 = 1044), and read b conflicts
    // on bank 0, so it waits for a.  Writes 1 and 2 are row hits on
    // idle banks, but the pending read outranks them: they wait too.
    eq.scheduleAt(1000, [this] {
        access(0, 0, false, 'a');
        access(0, 1, false, 'b');
        access(4, 0, true, '1');
        access(8, 0, true, '2');
    });
    // Write 3 fills the write queue to the high watermark.  Writes 1
    // and 2 issue at 1020 (data 1060, back-to-back bursts done 1064
    // and 1068), which drains the queue to the low watermark, so
    // write 3 waits behind read b.  Read b issues at 1044 (precharge,
    // activate 1084, done 1168); write 3 issues once no read is left
    // and bursts right after it (1172).
    eq.scheduleAt(1020, [this] { access(12, 0, true, '3'); });
    eq.run();
    EXPECT_EQ(tagged, (std::vector<std::pair<char, Tick>>{{'a', 1044},
                                                          {'1', 1064},
                                                          {'2', 1068},
                                                          {'b', 1168},
                                                          {'3', 1172}}));
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(DdrRefreshTest, IdleGapCatchesUpEveryRefreshAndClosesRows)
{
    read(0, 0); // activate 20, done 104
    eq.run();
    ASSERT_EQ(done, (std::vector<Tick>{104}));

    // Idle across the refreshes at 1000, 2000 and 3000: the next
    // access catches up all three at once, and since refresh
    // precharges every bank, row 0 is closed again: activate at 3500,
    // done 3500 + 40 + 40 + 4.  A row hit would finish at 3544.
    eq.scheduleAt(3500, [this] { read(0, 0); });
    eq.run();
    EXPECT_EQ(done, (std::vector<Tick>{104, 3584}));
    EXPECT_EQ(stats.get("chan0.refreshes"), 3u);
    EXPECT_EQ(stats.get("chan0.activates"), 2u);
    EXPECT_EQ(stats.get("chan0.row_hits"), 0u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST(DramControllerDeathTest, MoreThan64BanksAreFatal)
{
    EventQueue eq;
    StatRegistry stats;
    const AddrMap map(1, 1, 128, 8192);
    DramTiming t;
    t.banks_per_group = 128;
    EXPECT_DEATH(DramController(eq, t, map, "chan", 0, stats),
                 "at most 64");
}

// --------------------------------------------- linear-scan reference

/**
 * The controller's earlier queueing, kept as the reference the
 * per-bank pick must match op for op: two arrival-order deques, and a
 * pick that computes every queued request's earliest start.  Stats
 * register under the same names as a DramController's.
 */
class LinearScanController
{
  public:
    LinearScanController(EventQueue &eq, const DramTiming &t,
                         const AddrMap &map, const std::string &prefix,
                         StatRegistry &stats)
        : eq(eq), t(t), limit_acts(t.rrd_s || t.rrd_l || t.faw), map(map),
          banks(t.bank_groups * t.banks_per_group),
          group_last_act(t.bank_groups, 0),
          next_refresh(t.refi ? t.refi : max_tick)
    {
        stats.add(prefix + "reads", &stat_reads);
        stats.add(prefix + "writes", &stat_writes);
        stats.add(prefix + "activates", &stat_activates);
        stats.add(prefix + "row_hits", &stat_row_hits);
        stats.add(prefix + "refreshes", &stat_refreshes);
        stats.add(prefix + "retry_arms", &stat_retry_arms);
        stats.add(prefix + "retry_fires", &stat_retry_fires);
        stats.add(prefix + "retry_stale", &stat_retry_stale);
        stats.add(prefix + "queue_depth", &hist_queue_depth);
    }

    void
    accessBlock(Addr paddr, bool is_write, Continuation cb)
    {
        const MemLoc loc = map.decode(paddr);
        auto &q = is_write && t.write_queue ? write_q : read_q;
        q.push_back(Request{is_write, loc.row, loc.bank, std::move(cb)});
        hist_queue_depth.record(read_q.size() + write_q.size());
        trySchedule();
    }

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Tick free_at = 0;
        Tick ras_ready_at = 0;
    };

    struct Request
    {
        bool is_write;
        std::uint64_t row;
        unsigned bank;
        Continuation cb;
    };

    unsigned groupOf(unsigned bank) const { return bank / t.banks_per_group; }

    void
    armRetry(Tick when)
    {
        if (retry_armed && retry_at <= when)
            return;
        const std::uint64_t gen = ++retry_gen;
        ++stat_retry_arms;
        retry_armed = true;
        retry_at = when;
        eq.scheduleAt(when, [this, gen] {
            if (gen != retry_gen) {
                ++stat_retry_stale;
                return;
            }
            ++stat_retry_fires;
            retry_armed = false;
            retry_at = max_tick;
            trySchedule();
        });
    }

    void
    advanceRefresh(Tick now)
    {
        if (now < next_refresh)
            return;
        const std::uint64_t periods = (now - next_refresh) / t.refi + 1;
        stat_refreshes += periods;
        const Tick last = next_refresh + (periods - 1) * t.refi;
        next_refresh += periods * t.refi;
        for (Bank &b : banks) {
            b.open_row = -1;
            b.free_at = std::max(b.free_at, last + t.rfc);
            b.ras_ready_at = 0;
        }
    }

    Tick
    earliestStart(const Request &r, Tick now) const
    {
        const Bank &b = banks[r.bank];
        Tick start = std::max(now, b.free_at);
        if (b.open_row == static_cast<std::int64_t>(r.row))
            return start;
        if (b.open_row >= 0)
            start = std::max(start, b.ras_ready_at);
        if (!limit_acts)
            return start;
        const Ticks pre = b.open_row >= 0 ? t.rp : Ticks{0};
        Tick act = start + pre;
        act = std::max(act, any_last_act + t.rrd_s);
        act = std::max(act, group_last_act[groupOf(r.bank)] + t.rrd_l);
        if (act_window.size() >= 4)
            act = std::max(act, act_window.front() + t.faw);
        return act - pre;
    }

    void
    issue(Request req, Tick now)
    {
        Bank &bank = banks[req.bank];
        Ticks access = 0;
        if (bank.open_row == static_cast<std::int64_t>(req.row)) {
            access = t.cl;
            ++stat_row_hits;
        } else {
            const Ticks pre = bank.open_row >= 0 ? t.rp : Ticks{0};
            access = pre + t.rcd + t.cl;
            ++stat_activates;
            const Tick act = now + pre;
            if (limit_acts) {
                any_last_act = act;
                group_last_act[groupOf(req.bank)] = act;
                act_window.push_back(act);
                if (act_window.size() > 4)
                    act_window.pop_front();
            }
            bank.ras_ready_at = act + t.ras;
        }
        bank.open_row = static_cast<std::int64_t>(req.row);
        const Tick done = std::max(now + access, bus_free_at) + t.burst;
        bus_free_at = done;
        bank.free_at = done;
        if (req.is_write)
            ++stat_writes;
        else
            ++stat_reads;
        if (req.cb)
            eq.scheduleAt(done, std::move(req.cb));
    }

    std::deque<Request> &
    activeQueue()
    {
        return (draining || read_q.empty()) && !write_q.empty() ? write_q
                                                                : read_q;
    }

    void
    trySchedule()
    {
        const Tick now = eq.now();
        advanceRefresh(now);
        Tick earliest = max_tick;
        while (!read_q.empty() || !write_q.empty()) {
            if (write_q.size() >= t.write_drain_high)
                draining = true;
            else if (write_q.size() <= t.write_drain_low)
                draining = false;
            auto &q = activeQueue();
            auto pick = q.end();
            earliest = max_tick;
            for (auto it = q.begin(); it != q.end(); ++it) {
                const Tick start = earliestStart(*it, now);
                if (start > now) {
                    earliest = std::min(earliest, start);
                    continue;
                }
                if (banks[it->bank].open_row ==
                    static_cast<std::int64_t>(it->row)) {
                    pick = it;
                    break;
                }
                if (pick == q.end())
                    pick = it;
            }
            if (pick == q.end())
                break;
            Request req = std::move(*pick);
            q.erase(pick);
            issue(std::move(req), now);
        }
        if (read_q.empty() && write_q.empty())
            return;
        ASSERT_TRUE(earliest != max_tick && earliest > now);
        armRetry(earliest);
    }

    EventQueue &eq;
    const DramTiming t;
    const bool limit_acts;
    const AddrMap &map;
    std::deque<Request> read_q;
    std::deque<Request> write_q;
    std::vector<Bank> banks;
    std::deque<Tick> act_window;
    std::vector<Tick> group_last_act;
    Tick any_last_act = 0;
    Tick bus_free_at = 0;
    Tick next_refresh;
    bool draining = false;
    bool retry_armed = false;
    Tick retry_at = max_tick;
    std::uint64_t retry_gen = 0;

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_activates;
    Counter stat_row_hits;
    Counter stat_refreshes;
    Counter stat_retry_arms;
    Counter stat_retry_fires;
    Counter stat_retry_stale;
    Histogram hist_queue_depth;
};

/** One timed arrival; @p notify false passes a null callback. */
struct Arrival
{
    Tick at;
    Addr paddr;
    bool write;
    bool notify;
};

/**
 * Bursts of 1 to 64 arrivals over 16 banks, each bank keeping to a
 * small set of rows (so row hits, conflicts and open-row changes all
 * occur), separated by idle gaps of which some outlast a refresh
 * interval.
 */
std::vector<Arrival>
mixedStream(std::uint64_t seed, unsigned n)
{
    Rng rng(seed);
    std::vector<std::uint64_t> row(16, 0);
    std::vector<Arrival> out;
    Tick at = 0;
    while (out.size() < n) {
        const std::uint64_t burst = 1 + rng.below(64);
        for (std::uint64_t i = 0; i < burst; ++i) {
            const unsigned bank = static_cast<unsigned>(rng.below(16));
            if (rng.chance(0.3))
                row[bank] = rng.below(6);
            const Addr blk = (row[bank] << 11) | (rng.below(128) << 4) | bank;
            const bool write = rng.chance(0.35);
            out.push_back({at, blk << block_shift, write,
                           !write || rng.chance(0.5)});
            at += rng.below(24);
        }
        at += rng.chance(0.2) ? rng.below(6000) : rng.below(300);
    }
    return out;
}

/** What a run leaves to compare: completions in order, and stats. */
struct RunLog
{
    std::vector<std::pair<std::size_t, Tick>> done;
    std::map<std::string, std::uint64_t> counters;
    std::string histograms;
};

template <typename Controller>
RunLog
replay(const DramTiming &t, const std::vector<Arrival> &stream)
{
    const AddrMap map(1, 1, 16, 8192);
    EventQueue eq;
    StatRegistry stats;
    Controller ctrl(eq, t, map, stats);
    RunLog log;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Arrival &a = stream[i];
        eq.scheduleAt(a.at, [&ctrl, &log, &eq, &a, i] {
            Continuation cb;
            if (a.notify)
                cb = [&log, &eq, i] { log.done.emplace_back(i, eq.now()); };
            ctrl.accessBlock(a.paddr, a.write, std::move(cb));
        });
    }
    eq.run();
    log.counters = stats.snapshot();
    log.histograms = stats.histogramsJson();
    return log;
}

struct Subject : DramController
{
    Subject(EventQueue &eq, const DramTiming &t, const AddrMap &map,
            StatRegistry &stats)
        : DramController(eq, t, map, "chan", 0, stats)
    {}
};

struct Reference : LinearScanController
{
    Reference(EventQueue &eq, const DramTiming &t, const AddrMap &map,
              StatRegistry &stats)
        : LinearScanController(eq, t, map, "chan0.", stats)
    {}
};

/** DdrConfig's default timing in ticks, but with a 2000-tick refresh
 *  interval (140-tick refresh) and drain watermarks at 4 and 12. */
DramTiming
ddrRefTiming()
{
    DramTiming t;
    t.bank_groups = 4;
    t.banks_per_group = 4;
    t.cl = t.rcd = t.rp = 55;
    t.ras = 128;
    t.rrd_s = 13;
    t.rrd_l = 20;
    t.faw = 100;
    t.refi = 2000;
    t.rfc = 140;
    t.burst = 13;
    t.write_queue = true;
    t.write_drain_low = 4;
    t.write_drain_high = 12;
    return t;
}

/** A vault: no activate limits, no refresh, one queue. */
DramTiming
vaultRefTiming()
{
    DramTiming t;
    t.banks_per_group = 16;
    t.cl = t.rcd = t.rp = 55;
    t.burst = 16;
    return t;
}

TEST(DramController, MatchesLinearScanReferenceOpForOp)
{
    for (const auto &[name, timing] :
         {std::pair{"ddr", ddrRefTiming()},
          std::pair{"vault", vaultRefTiming()}}) {
        for (std::uint64_t seed : {1, 2, 3}) {
            SCOPED_TRACE(std::string(name) + " seed " +
                         std::to_string(seed));
            const auto stream = mixedStream(seed, 6000);
            const RunLog want = replay<Reference>(timing, stream);
            const RunLog got = replay<Subject>(timing, stream);
            ASSERT_EQ(got.done.size(), want.done.size());
            for (std::size_t i = 0; i < want.done.size(); ++i)
                ASSERT_EQ(got.done[i], want.done[i]) << "completion " << i;
            EXPECT_EQ(got.counters, want.counters);
            EXPECT_EQ(got.histograms, want.histograms);
            // The stream reaches every regime the pick handles.
            EXPECT_GT(want.counters.at("chan0.row_hits"), 1000u);
            EXPECT_GT(want.counters.at("chan0.activates"), 1000u);
            EXPECT_GT(want.counters.at("chan0.retry_stale"), 0u);
            EXPECT_EQ(want.counters.at("chan0.refreshes") > 10,
                      timing.refi > 0);
        }
    }
}

} // namespace
} // namespace pei
