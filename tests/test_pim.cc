/**
 * @file
 * Unit tests for the PIM module: PEI functional semantics, the PIM
 * directory's reader-writer locking and pfence, the locality
 * monitor's prediction behaviour (including the ignore flag and
 * partial-tag aliasing), and the PCU operand buffer / compute port
 * model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fixture.hh"
#include "pim/locality_monitor.hh"
#include "pim/pcu.hh"
#include "pim/pei_op.hh"
#include "pim/pim_directory.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

// ------------------------------------------------------------- PEI ops

struct PeiOpsFixture : public ::testing::Test
{
    PeiOpsFixture() : vm(16 << 20), base(vm.alloc(4096)) {}

    PimPacket
    exec(PeiOpcode op, Addr vaddr, const void *in, unsigned in_size)
    {
        PimPacket pkt = makePimPacket(op, vm.translate(vaddr), in,
                                      in_size);
        executePeiFunctional(vm, pkt);
        return pkt;
    }

    VirtualMemory vm;
    Addr base;
};

TEST_F(PeiOpsFixture, TableOneMetadataMatchesPaper)
{
    // Table 1 exactly: seven operations, each with its R/W flags and
    // operand sizes; the first three are the writers.
    struct Row
    {
        PeiOpcode op;
        const char *name;
        bool reads, writes;
        unsigned input_bytes, output_bytes;
    };
    const Row table1[] = {
        {PeiOpcode::Inc64, "inc64", true, true, 0, 0},
        {PeiOpcode::Min64, "min64", true, true, 8, 0},
        {PeiOpcode::FaddDouble, "fadd", true, true, 8, 0},
        {PeiOpcode::HashProbe, "hash_probe", true, false, 8, 9},
        {PeiOpcode::HistBinIdx, "hist_idx", true, false, 1, 16},
        {PeiOpcode::EuclidDist, "euclid", true, false, 64, 4},
        {PeiOpcode::DotProduct, "dot", true, false, 32, 8},
    };
    EXPECT_EQ(static_cast<unsigned>(PeiOpcode::NumOpcodes), 7u);
    for (unsigned i = 0; i < 7; ++i) {
        const Row &row = table1[i];
        EXPECT_EQ(static_cast<unsigned>(row.op), i);
        const PeiOpInfo &info = peiOpInfo(row.op);
        EXPECT_STREQ(info.name, row.name);
        EXPECT_EQ(info.reads, row.reads) << row.name;
        EXPECT_EQ(info.writes, row.writes) << row.name;
        EXPECT_EQ(info.input_bytes, row.input_bytes) << row.name;
        EXPECT_EQ(info.output_bytes, row.output_bytes) << row.name;
    }
}

TEST_F(PeiOpsFixture, Inc64)
{
    vm.write<std::uint64_t>(base, 41);
    exec(PeiOpcode::Inc64, base, nullptr, 0);
    EXPECT_EQ(vm.read<std::uint64_t>(base), 42u);
}

TEST_F(PeiOpsFixture, Min64KeepsSmaller)
{
    vm.write<std::uint64_t>(base, 100);
    std::uint64_t v = 50;
    exec(PeiOpcode::Min64, base, &v, 8);
    EXPECT_EQ(vm.read<std::uint64_t>(base), 50u);
    v = 70;
    exec(PeiOpcode::Min64, base, &v, 8);
    EXPECT_EQ(vm.read<std::uint64_t>(base), 50u);
}

TEST_F(PeiOpsFixture, FaddAccumulates)
{
    vm.write<double>(base, 1.5);
    double d = 2.25;
    exec(PeiOpcode::FaddDouble, base, &d, 8);
    EXPECT_DOUBLE_EQ(vm.read<double>(base), 3.75);
}

TEST_F(PeiOpsFixture, HashProbeMatchAndChain)
{
    HashBucket bucket{};
    bucket.keys[0] = 7;
    bucket.keys[1] = 9;
    bucket.count = 2;
    bucket.next = 0xABC0;
    vm.write(base, bucket);

    HashProbeIn hit{9};
    PimPacket r = exec(PeiOpcode::HashProbe, base, &hit, 8);
    EXPECT_EQ(r.output[8], 1);
    std::uint64_t next;
    std::memcpy(&next, r.output.data(), 8);
    EXPECT_EQ(next, 0xABC0u);

    HashProbeIn miss{8};
    r = exec(PeiOpcode::HashProbe, base, &miss, 8);
    EXPECT_EQ(r.output[8], 0);
}

TEST_F(PeiOpsFixture, HistBinIdxShiftsAndTruncates)
{
    for (unsigned i = 0; i < 16; ++i)
        vm.write<std::uint32_t>(base + 4 * i, (i * 3 + 1) << 24);
    std::uint8_t shift = 24;
    PimPacket r = exec(PeiOpcode::HistBinIdx, base, &shift, 1);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(r.output[i], ((i * 3 + 1)) & 0xFF);
}

TEST_F(PeiOpsFixture, EuclidDistPartialSum)
{
    float a[16], b[16];
    for (unsigned i = 0; i < 16; ++i) {
        a[i] = static_cast<float>(i);
        b[i] = static_cast<float>(i) + 2.0f;
        vm.write<float>(base + 4 * i, a[i]);
    }
    PimPacket r = exec(PeiOpcode::EuclidDist, base, b, 64);
    float out;
    std::memcpy(&out, r.output.data(), 4);
    EXPECT_FLOAT_EQ(out, 16 * 4.0f);
}

TEST_F(PeiOpsFixture, DotProduct)
{
    double x[4] = {1, 2, 3, 4}, w[4] = {2, 0.5, -1, 3};
    for (unsigned i = 0; i < 4; ++i)
        vm.write<double>(base + 8 * i, x[i]);
    PimPacket r = exec(PeiOpcode::DotProduct, base, w, 32);
    double out;
    std::memcpy(&out, r.output.data(), 8);
    EXPECT_DOUBLE_EQ(out, 2 + 1 - 3 + 12);
}

TEST_F(PeiOpsFixture, SingleCacheBlockRestrictionEnforced)
{
    // A 32-byte target starting 48 bytes into a block crosses the
    // boundary — the paper's restriction forbids it (death test via
    // panic/abort).
    double w[4] = {0, 0, 0, 0};
    EXPECT_DEATH(
        {
            PimPacket pkt = makePimPacket(PeiOpcode::DotProduct,
                                          0x1030, w, 32);
            (void)pkt;
        },
        "single-cache-block");
}

// ------------------------------------------------------- PIM directory

struct DirFixture : public ::testing::Test
{
    DirFixture() : dir(eq, 64, 2, stats) {}

    EventQueue eq;
    StatRegistry stats;
    PimDirectory dir;
};

TEST_F(DirFixture, ReadersShareWritersExclude)
{
    int granted = 0;
    dir.acquire(1, false, [&] { ++granted; });
    dir.acquire(1, false, [&] { ++granted; });
    eq.run();
    EXPECT_EQ(granted, 2); // concurrent readers

    int wgrant = 0;
    dir.acquire(1, true, [&] { ++wgrant; });
    eq.run();
    EXPECT_EQ(wgrant, 0); // blocked behind readers
    dir.release(1, false);
    eq.run();
    EXPECT_EQ(wgrant, 0);
    dir.release(1, false);
    eq.run();
    EXPECT_EQ(wgrant, 1); // last reader released it
    dir.release(1, true);
}

TEST_F(DirFixture, WritersSerialize)
{
    std::vector<int> order;
    dir.acquire(2, true, [&] { order.push_back(1); });
    dir.acquire(2, true, [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 1u);
    dir.release(2, true);
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[1], 2);
    dir.release(2, true);
}

TEST_F(DirFixture, QueuedWriterBlocksLaterReaders)
{
    int events = 0;
    dir.acquire(3, false, [&] { ++events; }); // active reader
    dir.acquire(3, true, [&] { events += 10; }); // queued writer
    dir.acquire(3, false, [&] { events += 100; }); // must wait (no
                                                   // starvation)
    eq.run();
    EXPECT_EQ(events, 1);
    dir.release(3, false);
    eq.run();
    EXPECT_EQ(events, 11); // writer went next
    dir.release(3, true);
    eq.run();
    EXPECT_EQ(events, 111);
    dir.release(3, false);
}

TEST_F(DirFixture, AliasedBlocksSerializeButStayCorrect)
{
    // foldedXor(5, 6) = 5 and foldedXor(198, 6) = (198 & 63) ^
    // (198 >> 6) = 6 ^ 3 = 5: the two blocks share a directory
    // entry — a false positive that serializes them.
    int granted = 0;
    dir.acquire(5, true, [&] { ++granted; });
    dir.acquire(198, true, [&] { ++granted; });
    eq.run();
    EXPECT_EQ(granted, 1);
    EXPECT_GE(dir.falseConflicts(), 1u);
    dir.release(5, true);
    eq.run();
    EXPECT_EQ(granted, 2);
    dir.release(198, true);
}

TEST_F(DirFixture, FalseConflictsCountHoldersAndQueuedWaiters)
{
    // Blocks 5 and 198 share entry 5.  A PEI on a block that only a
    // queued waiter targets is a true conflict, as is one on a block
    // that only a holder targets; a PEI on a block that neither
    // targets is a false one.
    std::vector<Addr> order;
    auto grant = [&order](Addr b) {
        return [&order, b] { order.push_back(b); };
    };
    dir.acquire(5, true, grant(5));
    dir.acquire(198, true, grant(198)); // neither: false conflict
    EXPECT_EQ(dir.conflicts(), 1u);
    EXPECT_EQ(dir.falseConflicts(), 1u);
    dir.acquire(198, false, grant(198)); // only the queued waiter's block
    EXPECT_EQ(dir.conflicts(), 2u);
    EXPECT_EQ(dir.falseConflicts(), 1u);
    dir.acquire(5, false, grant(5)); // only the holder's block
    EXPECT_EQ(dir.conflicts(), 3u);
    EXPECT_EQ(dir.falseConflicts(), 1u);
    EXPECT_EQ(dir.probeViolation(), "");
    eq.run();
    EXPECT_EQ(order, (std::vector<Addr>{5}));

    dir.release(5, true); // the queued writer goes next
    EXPECT_EQ(dir.probeViolation(), "");
    eq.run();
    dir.release(198, true); // then both readers together
    eq.run();
    EXPECT_EQ(order, (std::vector<Addr>{5, 198, 198, 5}));
    EXPECT_EQ(dir.probeViolation(), "");
    dir.release(5, false);
    dir.release(198, false);
    EXPECT_EQ(dir.probeViolation(), "");
    EXPECT_EQ(dir.conflicts(), 3u);
    EXPECT_EQ(dir.falseConflicts(), 1u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(DirFixture, PfenceWaitsForAllWriters)
{
    bool fence_done = false;
    dir.acquire(7, true, [] {});
    dir.acquire(8, true, [] {});
    eq.run();
    dir.pfence([&fence_done] { fence_done = true; });
    eq.run();
    EXPECT_FALSE(fence_done);
    dir.release(7, true);
    eq.run();
    EXPECT_FALSE(fence_done);
    dir.release(8, true);
    eq.run();
    EXPECT_TRUE(fence_done);
}

TEST_F(DirFixture, PfenceIgnoresReaders)
{
    bool fence_done = false;
    dir.acquire(9, false, [] {});
    eq.run();
    dir.pfence([&fence_done] { fence_done = true; });
    eq.run();
    EXPECT_TRUE(fence_done);
    dir.release(9, false);
}

TEST(PimDirectoryIdeal, ExactTrackingNeverAliases)
{
    EventQueue eq;
    StatRegistry stats;
    PimDirectory dir(eq, 0, 0, stats, "ideal_dir");
    int granted = 0;
    // 1000 writers to 1000 distinct blocks all grant immediately.
    for (Addr b = 0; b < 1000; ++b)
        dir.acquire(b, true, [&granted] { ++granted; });
    eq.run();
    EXPECT_EQ(granted, 1000);
    EXPECT_EQ(dir.conflicts(), 0u);
    for (Addr b = 0; b < 1000; ++b)
        dir.release(b, true);
}

TEST(PimDirectoryOneEntry, EveryBlockSharesTheOneEntry)
{
    // 0 index bits: blocks 0x40 and 0x80 both map to entry 0, so the
    // second writer waits, as a false conflict, until the release.
    EventQueue eq;
    StatRegistry stats;
    PimDirectory dir(eq, 1, 2, stats, "one_dir");
    int granted = 0;
    dir.acquire(0x40, true, [&granted] { ++granted; });
    dir.acquire(0x80, true, [&granted] { ++granted; });
    eq.run();
    EXPECT_EQ(granted, 1);
    EXPECT_EQ(dir.conflicts(), 1u);
    EXPECT_EQ(dir.falseConflicts(), 1u);
    dir.release(0x40, true);
    eq.run();
    EXPECT_EQ(granted, 2);
    dir.release(0x80, true);
    EXPECT_TRUE(stats.audit().empty());
}

TEST(PimDirectoryStress, RandomAcquireReleaseBalances)
{
    EventQueue eq;
    StatRegistry stats;
    PimDirectory dir(eq, 128, 2, stats, "stress_dir");
    Rng rng(9);
    std::vector<std::pair<Addr, bool>> held;
    std::uint64_t granted = 0, requested = 0;

    for (int i = 0; i < 5000; ++i) {
        if (!held.empty() && rng.chance(0.5)) {
            const auto [block, writer] = held.back();
            held.pop_back();
            dir.release(block, writer);
        } else {
            const Addr block = rng.below(512);
            const bool writer = rng.chance(0.3);
            ++requested;
            dir.acquire(block, writer, [&granted, &held, block, writer] {
                ++granted;
                held.emplace_back(block, writer);
            });
        }
        eq.run();
    }
    while (!held.empty()) {
        const auto [block, writer] = held.back();
        held.pop_back();
        dir.release(block, writer);
        eq.run();
    }
    EXPECT_EQ(granted, requested);
    EXPECT_EQ(dir.inFlightWriters(), 0u);
    bool fence_done = false;
    dir.pfence([&fence_done] { fence_done = true; });
    eq.run();
    EXPECT_TRUE(fence_done);
    // End-of-sim audit: acquire/release balance and no writers left.
    EXPECT_TRUE(stats.audit().empty());
}

// ----------------------------------------------------- LocalityMonitor

TEST(LocalityMonitorTest, MissUntilTouched)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, true, "m1");
    EXPECT_FALSE(mon.lookupForPei(0x123));
    mon.onL3Access(0x123);
    EXPECT_TRUE(mon.lookupForPei(0x123));
}

TEST(LocalityMonitorTest, IgnoreFlagSuppressesFirstPimHit)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, true, "m2");
    mon.onPimIssue(0x55);
    EXPECT_FALSE(mon.lookupForPei(0x55)); // first hit ignored
    EXPECT_TRUE(mon.lookupForPei(0x55));  // second hit counts
}

TEST(LocalityMonitorTest, DemandAccessClearsIgnoreFlag)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, true, "m3");
    mon.onPimIssue(0x55);
    mon.onL3Access(0x55); // demand touch clears the flag
    EXPECT_TRUE(mon.lookupForPei(0x55));
}

TEST(LocalityMonitorTest, IgnoreFlagDisabledAblation)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, false, "m4");
    mon.onPimIssue(0x55);
    EXPECT_TRUE(mon.lookupForPei(0x55)); // no suppression
}

TEST(LocalityMonitorTest, LruEvictionForgetsColdBlocks)
{
    StatRegistry stats;
    LocalityMonitor mon(4, 2, stats, 10, true, "m5");
    // Same set (set = block & 3): blocks 0, 4, 8.
    mon.onL3Access(0);
    mon.onL3Access(4);
    mon.onL3Access(8); // evicts 0 (LRU)
    EXPECT_FALSE(mon.lookupForPei(0));
    EXPECT_TRUE(mon.lookupForPei(4));
    EXPECT_TRUE(mon.lookupForPei(8));
}

TEST(LocalityMonitorTest, StatsPartitionLookups)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, true, "m7");
    mon.onPimIssue(0x55);
    EXPECT_FALSE(mon.lookupForPei(0x55)); // ignored hit — NOT a miss
    EXPECT_TRUE(mon.lookupForPei(0x55));  // genuine hit
    EXPECT_FALSE(mon.lookupForPei(0x99)); // genuine miss
    EXPECT_EQ(mon.lookups(), 3u);
    EXPECT_EQ(mon.hits(), 1u);
    EXPECT_EQ(mon.misses(), 1u);
    EXPECT_EQ(mon.ignoredHits(), 1u);
    // The disjoint-outcome invariant the monitor registers.
    EXPECT_EQ(mon.hits() + mon.misses() + mon.ignoredHits(),
              mon.lookups());
    EXPECT_TRUE(stats.audit().empty());
}

TEST(LocalityMonitorTest, PartialTagsCanFalsePositive)
{
    StatRegistry stats;
    // 1-bit partial tags: aliasing is certain among a few blocks.
    LocalityMonitor mon(4, 1, stats, 1, true, "m6");
    mon.onL3Access(0x10); // set 0
    bool aliased = false;
    for (Addr b = 0x20; b < 0x200; b += 0x10) {
        if ((b & 3) == 0 && mon.lookupForPei(b)) {
            aliased = true;
            break;
        }
    }
    EXPECT_TRUE(aliased);
}

TEST(LocalityMonitorTest, AliasedTagsDoNotCorruptHitAccounting)
{
    StatRegistry stats;
    // 64 sets (6 set bits), 10-bit folded-XOR tags.  foldedXor is
    // invariant under v ^= (c | c << 10), so the block uppers 0x5 and
    // 0x5 ^ (3 | 3 << 10) = 0xC06 both fold to tag 5; shifted onto
    // the same set they are indistinguishable to the monitor.
    LocalityMonitor mon(64, 4, stats, 10, true, "m8");
    const Addr b1 = 0x5ULL << 6;
    const Addr b2 = 0xC06ULL << 6;
    ASSERT_NE(b1, b2);

    mon.onL3Access(b1);
    // The alias false-positives — and must be *accounted* as a hit,
    // not as a miss plus a phantom entry.
    EXPECT_TRUE(mon.lookupForPei(b2));
    EXPECT_TRUE(mon.lookupForPei(b1));
    EXPECT_EQ(mon.lookups(), 2u);
    EXPECT_EQ(mon.hits(), 2u);
    EXPECT_EQ(mon.misses(), 0u);
    EXPECT_EQ(mon.ignoredHits(), 0u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST(LocalityMonitorTest, AliasedPimTouchSharesOneIgnoreFlag)
{
    StatRegistry stats;
    LocalityMonitor mon(64, 4, stats, 10, true, "m9");
    const Addr b1 = 0x5ULL << 6;
    const Addr b2 = 0xC06ULL << 6; // same set, same folded tag

    mon.onPimIssue(b1); // allocates one ignore-flagged entry
    // The alias consumes the single ignore flag; the entry is shared,
    // so the flag must be spent exactly once across both addresses.
    EXPECT_FALSE(mon.lookupForPei(b2));
    EXPECT_TRUE(mon.lookupForPei(b1));
    EXPECT_TRUE(mon.lookupForPei(b2));
    EXPECT_EQ(mon.lookups(), 3u);
    EXPECT_EQ(mon.ignoredHits(), 1u);
    EXPECT_EQ(mon.hits(), 2u);
    EXPECT_EQ(mon.misses(), 0u);
    EXPECT_EQ(mon.hits() + mon.misses() + mon.ignoredHits(),
              mon.lookups());
    EXPECT_TRUE(stats.audit().empty());
}

/**
 * The locality monitor's old layout, kept as the reference: one
 * {valid, ignore, partial_tag, last_use} entry per way, scanned by
 * line, with the first-invalid-else-LRU victim rule.
 */
class LineScanMonitor
{
  public:
    LineScanMonitor(unsigned sets, unsigned ways, unsigned tag_bits,
                    bool use_ignore_flag)
        : sets(sets), ways(ways), set_bits(floorLog2(sets)),
          tag_bits(tag_bits), use_ignore_flag(use_ignore_flag),
          array(static_cast<std::size_t>(sets) * ways)
    {}

    bool
    lookupForPei(Addr block)
    {
        ++lookups;
        Entry *e = find(block);
        if (!e) {
            ++misses;
            return false;
        }
        if (use_ignore_flag && e->ignore) {
            e->ignore = false;
            ++ignored_hits;
            return false;
        }
        ++hits;
        return true;
    }

    void
    insertOrPromote(Addr block, bool from_pim)
    {
        if (Entry *e = find(block)) {
            e->last_use = ++use_clock;
            if (!from_pim)
                e->ignore = false;
            return;
        }
        Entry *base = &array[(block & (sets - 1)) * ways];
        Entry *victim = &base[0];
        for (unsigned w = 0; w < ways; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].last_use < victim->last_use)
                victim = &base[w];
        }
        victim->valid = true;
        victim->partial_tag = tagOf(block);
        victim->ignore = from_pim && use_ignore_flag;
        victim->last_use = ++use_clock;
    }

    std::uint64_t lookups = 0, hits = 0, misses = 0, ignored_hits = 0;

  private:
    struct Entry
    {
        bool valid = false;
        bool ignore = false;
        std::uint32_t partial_tag = 0;
        std::uint64_t last_use = 0;
    };

    std::uint32_t
    tagOf(Addr block) const
    {
        return static_cast<std::uint32_t>(
            foldedXor(block >> set_bits, tag_bits));
    }

    Entry *
    find(Addr block)
    {
        Entry *base = &array[(block & (sets - 1)) * ways];
        for (unsigned w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].partial_tag == tagOf(block))
                return &base[w];
        }
        return nullptr;
    }

    unsigned sets, ways, set_bits, tag_bits;
    bool use_ignore_flag;
    std::uint64_t use_clock = 0;
    std::vector<Entry> array;
};

TEST(LocalityMonitor, MatchesLineScanReferenceOpForOp)
{
    // Blocks come from a few uppers per set plus their aliases
    // u ^ (c | c << bits), which fold to the same partial tag, so
    // aliasing is common at 30 bits as well as at 10.  Eight uppers
    // times four variants per set overflow four ways, so the stream
    // also evicts.
    constexpr unsigned sets = 16, ways = 4;
    for (const unsigned bits : {10u, 30u}) {
        for (const bool ignore_flag : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << bits << "-bit tags, ignore flag "
                         << ignore_flag);
            StatRegistry stats;
            LocalityMonitor mon(sets, ways, stats, bits, ignore_flag);
            LineScanMonitor ref(sets, ways, bits, ignore_flag);
            Rng rng(bits * 2 + ignore_flag);
            for (int op = 0; op < 20000; ++op) {
                const Addr c = rng.below(4);
                const Addr upper =
                    (rng.below(8) * 0x9e37 + 1) ^ (c | c << bits);
                const Addr block = upper << 4 | rng.below(sets);
                switch (rng.below(5)) {
                  case 0:
                  case 1:
                    mon.onL3Access(block);
                    ref.insertOrPromote(block, false);
                    break;
                  case 2:
                    mon.onPimIssue(block);
                    ref.insertOrPromote(block, true);
                    break;
                  default:
                    ASSERT_EQ(mon.lookupForPei(block),
                              ref.lookupForPei(block))
                        << "op " << op << " block " << block;
                }
            }
            EXPECT_EQ(mon.lookups(), ref.lookups);
            EXPECT_EQ(mon.hits(), ref.hits);
            EXPECT_EQ(mon.misses(), ref.misses);
            EXPECT_EQ(mon.ignoredHits(), ref.ignored_hits);
            EXPECT_GT(ref.hits, 0u);
            EXPECT_GT(ref.misses, 0u);
            EXPECT_EQ(ref.ignored_hits > 0, ignore_flag);
        }
    }
}

TEST(LocalityMonitorDeathTest, TagWidthOutsideOneTo31BitsIsFatal)
{
    // An all-ones tag marks an empty way, so 32 bits could alias it.
    StatRegistry stats;
    EXPECT_DEATH(LocalityMonitor(64, 4, stats, 32), "1 to 31 bits");
    EXPECT_DEATH(LocalityMonitor(64, 4, stats, 0), "1 to 31 bits");
}

// ---------------------------------------------- Balanced dispatch §7.4

/**
 * Drives one core through: demand-touch @p target (monitor insert),
 * 256 cold streaming loads (off-chip flit pressure), one PEI on
 * target, a long compute (EMA decay), one more PEI.  A free
 * coroutine function: reference parameters outlive the run (they
 * live in runPressureScenario's frame), unlike a temporary
 * closure's captures.
 */
Task
pressureKernel(Ctx &ctx, System &sys, Addr target, Addr stream,
               std::uint64_t &mem_hot, std::uint64_t &host_hot)
{
    // Demand access: target becomes a locality-monitor hit.
    co_await ctx.load(target);
    // Load the off-chip links with cold-block fetches.
    for (unsigned i = 0; i < 256; ++i)
        co_await ctx.loadAsync(stream + i * block_size);
    co_await ctx.drain();
    // A monitor hit under link pressure.
    co_await ctx.pei(PeiOpcode::Inc64, target, nullptr, 0);
    mem_hot = sys.pmu().peisMem();
    host_hot = sys.pmu().peisHost();
    // ~50 EMA half-periods of pure compute: pressure decays.
    co_await ctx.compute(2000000);
    co_await ctx.pei(PeiOpcode::Inc64, target, nullptr, 0);
}

void
runPressureScenario(System &sys, std::uint64_t &mem_hot,
                    std::uint64_t &host_hot)
{
    Runtime rt(sys);
    const Addr target = rt.alloc(block_size);
    const Addr stream = rt.alloc(256 * block_size);
    sys.memory().write<std::uint64_t>(target, 0);

    rt.spawn(0, [&](Ctx &ctx) {
        return pressureKernel(ctx, sys, target, stream, mem_hot,
                              host_hot);
    });
    rt.run();
    EXPECT_EQ(sys.memory().read<std::uint64_t>(target), 2u);
}

TEST(BalancedDispatchTest, MonitorHitStaysHostUnderLinkPressure)
{
    // Balanced dispatch only chooses for monitor misses (§7.4): a
    // monitor hit executes host-side however loaded the links are.
    SystemConfig cfg = fixture::smallConfig(ExecMode::LocalityAware);
    cfg.pim.balanced_dispatch = true;
    System sys(cfg);

    std::uint64_t mem_hot = 0, host_hot = 0;
    runPressureScenario(sys, mem_hot, host_hot);

    EXPECT_EQ(mem_hot, 0u);
    EXPECT_EQ(host_hot, 1u); // monitor hit executed host-side
    EXPECT_EQ(sys.pmu().peisMem(), 0u);
    EXPECT_EQ(sys.pmu().peisHost(), 2u);
    EXPECT_TRUE(sys.stats().audit().empty());
}

// ---------------------------------------------------- offload coherence

/** One writer PEI on @p target, offloaded under PIM-Only. */
Task
writerKernel(Ctx &ctx, Addr target)
{
    co_await ctx.pei(PeiOpcode::Inc64, target, nullptr, 0);
    co_await ctx.drain();
}

// Fig. 5 step ③: a skipped back-invalidation must trip the
// conservation audit under per-op and batched dispatch alike.
TEST(EagerCoherence, SkippedBackInvalidationBreaksTheAudit)
{
    for (const unsigned batch : {1u, 4u}) {
        SystemConfig cfg = fixture::smallConfig(ExecMode::PimOnly);
        cfg.pim.pei_batch = batch;
        System sys(cfg);
        sys.caches().injectSkipBackInvalidate(1);
        Runtime rt(sys);
        const Addr target = rt.alloc(block_size);
        sys.memory().write<std::uint64_t>(target, 0);

        rt.spawn(0, [&](Ctx &ctx) { return writerKernel(ctx, target); });
        rt.run();

        EXPECT_EQ(sys.stats().get("pmu.peis_mem"), 1u) << batch;
        EXPECT_FALSE(sys.stats().audit().empty()) << "pei_batch " << batch;
    }
}

// ------------------------------------------------------------- PCU

TEST(PcuTest, OperandBufferLimitsInFlight)
{
    EventQueue eq;
    StatRegistry stats;
    Pcu pcu(eq, "p1", 2, 1, 4000, stats);
    int granted = 0;
    for (int i = 0; i < 5; ++i)
        pcu.acquireEntry([&granted] { ++granted; });
    EXPECT_EQ(granted, 2);
    pcu.releaseEntry();
    eq.run();
    EXPECT_EQ(granted, 3);
    pcu.releaseEntry();
    pcu.releaseEntry();
    eq.run();
    EXPECT_EQ(granted, 5);
}

TEST(PcuTest, ComputeSerializesOnOnePort)
{
    EventQueue eq;
    StatRegistry stats;
    Pcu pcu(eq, "p2", 4, 1, 4000, stats);
    std::vector<Tick> ends;
    for (int i = 0; i < 3; ++i)
        pcu.compute(10, [&ends, &eq] { ends.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_EQ(ends[0], 10u);
    EXPECT_EQ(ends[1], 20u);
    EXPECT_EQ(ends[2], 30u);
}

TEST(PcuTest, WiderIssueOverlapsComputation)
{
    EventQueue eq;
    StatRegistry stats;
    Pcu pcu(eq, "p3", 4, 2, 4000, stats);
    std::vector<Tick> ends;
    for (int i = 0; i < 4; ++i)
        pcu.compute(10, [&ends, &eq] { ends.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(ends.size(), 4u);
    EXPECT_EQ(ends[1], 10u); // two ports run in parallel
    EXPECT_EQ(ends[3], 20u);
}

TEST(PcuTest, MemSideClockIsSlower)
{
    EventQueue eq;
    StatRegistry stats;
    Pcu host(eq, "p4h", 4, 1, 4000, stats);
    Pcu mem(eq, "p4m", 4, 1, 2000, stats);
    Tick host_end = 0, mem_end = 0;
    host.compute(10, [&] { host_end = eq.now(); });
    mem.compute(10, [&] { mem_end = eq.now(); });
    eq.run();
    EXPECT_EQ(host_end, 10u);
    EXPECT_EQ(mem_end, 20u); // 2 GHz: 2 ticks per cycle
}

} // namespace
} // namespace pei
