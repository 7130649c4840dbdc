/**
 * @file
 * Directed DDR channel timing tests with hand-computed tick
 * arithmetic: the rolling four-activate tFAW window, same-group
 * tRRD_L spacing, projected-activate gating on row conflicts (the
 * earliestStart/issue consistency fix), and retry re-arm hygiene
 * (stale events no-op instead of waking the scheduler spuriously),
 * write-drain hysteresis, and lazy refresh catch-up over idle gaps.
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

#include <cstdint>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/ddr.hh"
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

} // namespace
} // namespace pei
