/**
 * @file
 * Unit tests for the memory substrate: virtual memory and TLB,
 * physical address mapping, DRAM vault timing (FR-FCFS, row
 * buffers, TSV serialization), and the HMC link model (bandwidth,
 * flit accounting, EMA counters, PIM packet routing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_map.hh"
#include "mem/dram.hh"
#include "mem/hmc.hh"
#include "mem/vmem.hh"

namespace pei
{
namespace
{

// ------------------------------------------------------- VirtualMemory

TEST(VirtualMemory, AllocTranslateRoundTrip)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(10000);
    const Addr b = vm.alloc(10000);
    EXPECT_NE(a, b);
    // Different vaddrs map to different paddrs; offsets preserved.
    EXPECT_NE(vm.translate(a), vm.translate(b));
    EXPECT_EQ(vm.translate(a + 123) & 0xFFF, (vm.translate(a) + 123) & 0xFFF);
}

TEST(VirtualMemory, FunctionalReadWrite)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(4096 * 3);
    vm.write<std::uint64_t>(a + 4090, 0xDEADBEEFCAFEF00DULL); // crosses page
    EXPECT_EQ(vm.read<std::uint64_t>(a + 4090), 0xDEADBEEFCAFEF00DULL);

    std::vector<std::uint8_t> buf(8192, 0xAB);
    vm.writeBytes(a, buf.data(), buf.size());
    std::vector<std::uint8_t> out(8192, 0);
    vm.readBytes(a, out.data(), out.size());
    EXPECT_EQ(buf, out);
}

TEST(VirtualMemory, PhysicalAccessMatchesVirtual)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(4096);
    vm.write<std::uint32_t>(a + 100, 42);
    EXPECT_EQ(vm.readPhys<std::uint32_t>(vm.translate(a + 100)), 42u);
    vm.writePhys<std::uint32_t>(vm.translate(a + 100), 43);
    EXPECT_EQ(vm.read<std::uint32_t>(a + 100), 43u);
}

TEST(VirtualMemory, ZeroInitialized)
{
    VirtualMemory vm(64 << 20);
    const Addr a = vm.alloc(1 << 16);
    for (Addr off = 0; off < (1 << 16); off += 4096)
        EXPECT_EQ(vm.read<std::uint64_t>(a + off), 0u);
}

TEST(Tlb, HitsAfterFirstAccessAndEvictsLru)
{
    Tlb tlb(2, 100);
    EXPECT_EQ(tlb.access(0x1000), 100u); // miss
    EXPECT_EQ(tlb.access(0x1008), 0u);   // same page: hit
    EXPECT_EQ(tlb.access(0x2000), 100u); // miss
    EXPECT_EQ(tlb.access(0x1000), 0u);   // still resident
    EXPECT_EQ(tlb.access(0x3000), 100u); // evicts 0x2000 (LRU)
    EXPECT_EQ(tlb.access(0x2000), 100u); // miss again
    EXPECT_EQ(tlb.misses(), 4u);
}

TEST(VirtualMemoryDeathTest, UnmappedAccessIsASimulatedSegfault)
{
    VirtualMemory vm(64 << 20);
    const Addr first = vm.alloc(page_size);
    // A coarse alignment leaves unmapped pages between the two.
    const Addr second = vm.alloc(page_size, 16 * page_size);
    const Addr gap = first + 4 * page_size;
    ASSERT_LT(gap, second);
    const Addr below = first - 8;
    const Addr past = second + 4 * page_size;
    for (const Addr a : {below, gap, past}) {
        SCOPED_TRACE(a);
        EXPECT_DEATH((void)vm.translate(a),
                     "access to unmapped virtual address");
        EXPECT_DEATH((void)vm.read<std::uint64_t>(a),
                     "access to unmapped virtual address");
    }
    // The pages around them stay mapped.
    EXPECT_EQ(vm.read<std::uint64_t>(first), 0u);
    EXPECT_EQ(vm.read<std::uint64_t>(second), 0u);
}

/**
 * The TLB's replacement policy written plainly: each page keeps the
 * stamp of its last use, and a miss on a full TLB evicts the page
 * with the oldest stamp.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(unsigned capacity) : capacity(capacity) {}

    /** True on a hit. */
    bool
    access(Addr page)
    {
        ++tick;
        if (auto it = last_use.find(page); it != last_use.end()) {
            it->second = tick;
            return true;
        }
        if (last_use.size() >= capacity) {
            last_use.erase(std::min_element(
                last_use.begin(), last_use.end(),
                [](const auto &a, const auto &b) {
                    return a.second < b.second;
                }));
        }
        last_use.emplace(page, tick);
        return false;
    }

  private:
    unsigned capacity;
    std::uint64_t tick = 0;
    std::unordered_map<Addr, std::uint64_t> last_use;
};

TEST(Tlb, MatchesReferenceLruOnRandomStreams)
{
    constexpr Ticks walk = 100;
    constexpr int accesses = 20000;
    for (const unsigned capacity : {1u, 2u, 7u, 64u}) {
        // Streams over half, twice and eight times the capacity.
        for (const unsigned halves : {1u, 4u, 16u}) {
            SCOPED_TRACE(testing::Message() << capacity << " entries, "
                                            << halves << "/2 x span");
            Rng rng(capacity * 100 + halves);
            std::vector<Addr> pages(std::max(1u, capacity * halves / 2));
            for (Addr &p : pages)
                p = rng.next() >> 28; // random 36-bit page numbers
            Tlb tlb(capacity, walk);
            ReferenceLru ref(capacity);
            std::uint64_t hits = 0;
            for (int i = 0; i < accesses; ++i) {
                const Addr page = pages[rng.below(pages.size())];
                const bool hit = ref.access(page);
                hits += hit;
                ASSERT_EQ(tlb.access((page << page_shift) |
                                     rng.below(page_size)),
                          hit ? 0u : walk)
                    << "access " << i;
            }
            EXPECT_EQ(tlb.hits(), hits);
            EXPECT_EQ(tlb.misses(), accesses - hits);
        }
    }
}

TEST(TlbDeathTest, ZeroEntriesAreRejected)
{
    EXPECT_DEATH(Tlb(0, 100), "TLB needs at least one entry");
}

// ------------------------------------------------------------ AddrMap

TEST(AddrMap, DecodeCoversAllComponents)
{
    AddrMap map(8, 16, 16, 8192);
    EXPECT_EQ(map.totalVaults(), 128u);
    // Consecutive blocks land on consecutive cubes first.
    const MemLoc l0 = map.decode(0);
    const MemLoc l1 = map.decode(64);
    EXPECT_NE(l0.cube, l1.cube);
    // All fields within range over random addresses.
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const MemLoc loc = map.decode(rng.below(1ULL << 35));
        EXPECT_LT(loc.cube, 8u);
        EXPECT_LT(loc.vault, 16u);
        EXPECT_LT(loc.bank, 16u);
        EXPECT_EQ(loc.globalVault, loc.cube * 16 + loc.vault);
    }
}

TEST(AddrMap, MaxAddressDecodesInBounds)
{
    // 64 MB over 1x4 vaults, 16 banks, 8 KB rows: the last backed
    // block must decode cleanly into the final row stripe.
    const std::uint64_t phys = 64ULL << 20;
    AddrMap map(1, 4, 16, 8192, phys);
    ASSERT_GT(map.rowLimit(), 0u);
    const MemLoc last = map.decode(phys - block_size);
    EXPECT_LT(last.row, map.rowLimit());
    // An unbounded map (phys_bytes = 0) never rejects an address.
    AddrMap unbounded(1, 4, 16, 8192);
    EXPECT_EQ(unbounded.rowLimit(), 0u);
    (void)unbounded.decode(~0ULL & ~63ULL);
}

#ifndef NDEBUG
TEST(AddrMapDeathTest, DecodePastEndOfMemoryPanics)
{
    const std::uint64_t phys = 64ULL << 20;
    AddrMap map(1, 4, 16, 8192, phys);
    EXPECT_DEATH((void)map.decode(phys),
                 "decodes past the end of memory");
}
#endif

TEST(AddrMap, BlocksSpreadAcrossVaults)
{
    AddrMap map(1, 16, 16, 8192);
    std::vector<int> counts(16, 0);
    for (Addr a = 0; a < 16 * 64 * 64; a += 64)
        ++counts[map.decode(a).vault];
    for (int c : counts)
        EXPECT_EQ(c, 64);
}

// --------------------------------------------------------------- DRAM

struct VaultFixture : public ::testing::Test
{
    VaultFixture() : map(1, 1, 16, 8192), vault(eq, cfg, map, 0, stats)
    {}

    Ticks
    doAccess(Addr paddr, bool write)
    {
        const Tick start = eq.now();
        bool done = false;
        vault.accessBlock(paddr, write, [&done] { done = true; });
        while (!done && eq.runOne()) {}
        EXPECT_TRUE(done);
        return eq.now() - start;
    }

    /** Read logged under @p tag in tagged when it completes. */
    void
    read(Addr paddr, char tag)
    {
        vault.accessBlock(paddr, false, [this, tag] {
            tagged.emplace_back(tag, eq.now());
        });
    }

    StatRegistry stats;
    EventQueue eq;
    AddrMap map;
    DramConfig cfg;
    Vault vault;
    std::vector<std::pair<char, Tick>> tagged; ///< see read()
};

// Address helpers: with 16 banks low-interleaved, blocks with equal
// (blk % 16) share a bank; rows change every 128 same-bank blocks.
// 0x0 and 0x400 (blk 16): bank 0, row 0.  0x4000000: bank 0, far row.

TEST_F(VaultFixture, RowHitIsFasterThanRowMiss)
{
    const Ticks first = doAccess(0x0, false);  // empty row: tRCD + tCL
    const Ticks hit = doAccess(0x400, false);  // same bank+row: tCL
    // Far-apart row in the same bank: tRP + tRCD + tCL.
    const Ticks conflict = doAccess(0x4000000, false);
    EXPECT_LT(hit, first);
    EXPECT_LT(first, conflict);
    EXPECT_EQ(vault.rowHits(), 1u);
    EXPECT_EQ(vault.activates(), 2u);
}

TEST_F(VaultFixture, ExactTimingMatchesParameters)
{
    // Empty bank: tRCD (55) + tCL (55) + TSV burst (64 B at 16 GB/s
    // = 4 ns = 16 ticks).
    EXPECT_EQ(doAccess(0x0, false), 55u + 55u + 16u);
    // Row hit: tCL + burst.
    EXPECT_EQ(doAccess(0x400, false), 55u + 16u);
}

TEST_F(VaultFixture, BankParallelismOverlapsAccesses)
{
    // Two accesses to different banks overlap.
    int done = 0;
    const Tick start = eq.now();
    vault.accessBlock(0x0, false, [&done] { ++done; });
    vault.accessBlock(0x40, false, [&done] { ++done; }); // bank 1
    while (done < 2 && eq.runOne()) {}
    const Ticks both = eq.now() - start;
    // Overlapped: latency + one extra TSV burst, far less than 2x.
    EXPECT_LT(both, 2 * (55 + 55 + 16));
}

TEST_F(VaultFixture, FrFcfsPrefersRowHits)
{
    // First access opens row 0 of bank 0 and occupies the bank;
    // while it runs, queue a row-conflict request and then a
    // row-hit request.  FR-FCFS must service the younger hit first.
    std::vector<int> order;
    vault.accessBlock(0x0, false, [&order] { order.push_back(0); });
    vault.accessBlock(0x4000000, false,
                      [&order] { order.push_back(1); });
    vault.accessBlock(0x400, false, [&order] { order.push_back(2); });
    while (eq.runOne()) {}
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], 2); // the row hit overtakes the conflict
    EXPECT_EQ(order[2], 1);
}

TEST_F(VaultFixture, EarlierReArmLeavesExactlyOneStaleRetry)
{
    // a (bank 0) and b (bank 1) issue at 0: a is done at 55 + 55 + 16
    // = 126, and b's burst follows at 142.  c hits b's row but waits
    // for bank 1, so a retry is armed at 142.  d arrives at 1 for a's
    // row and re-arms the retry earlier, at 126.  d issues then (done
    // 126 + 55 + 16 = 197), and the retry for c is armed at 142
    // again.  The abandoned first event at 142 must drain as a stale
    // no-op; c bursts after d (213).
    read(0x0, 'a');
    read(0x40, 'b');
    read(0x440, 'c');
    eq.scheduleAt(1, [this] { read(0x400, 'd'); });
    eq.run();
    EXPECT_EQ(tagged, (std::vector<std::pair<char, Tick>>{
                          {'a', 126}, {'b', 142}, {'d', 197}, {'c', 213}}));
    EXPECT_EQ(vault.retryArms(), 3u);
    EXPECT_EQ(vault.retryFires(), 2u);
    EXPECT_EQ(vault.retryStale(), 1u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(VaultFixture, FirstTouchActivateDoesNotWaitForConflict)
{
    // A vault has no activate limits.  At 126 a row conflict on bank
    // 0 issues (precharge, activate at 181, done 126 + 165 + 16 =
    // 307).  At 127 a first touch of idle bank 1 issues at once and
    // bursts after it (323), without waiting for the conflict's
    // activate and without arming a retry.
    read(0x0, 'a');
    eq.run();
    eq.scheduleAt(126, [this] { read(0x4000000, 'b'); });
    eq.scheduleAt(127, [this] { read(0x40, 'c'); });
    eq.run();
    EXPECT_EQ(tagged, (std::vector<std::pair<char, Tick>>{
                          {'a', 126}, {'b', 307}, {'c', 323}}));
    EXPECT_EQ(vault.retryArms(), 0u);
    EXPECT_TRUE(stats.audit().empty());
}

TEST_F(VaultFixture, HighLoadDrainsCompletely)
{
    Rng rng(2);
    int done = 0;
    for (int i = 0; i < 2000; ++i)
        vault.accessBlock(64 * rng.below(1 << 20), rng.chance(0.3),
                          [&done] { ++done; });
    while (eq.runOne()) {}
    EXPECT_EQ(done, 2000);
    EXPECT_EQ(vault.reads() + vault.writes(), 2000u);
}

// ---------------------------------------------------------------- HMC

struct HmcFixture : public ::testing::Test
{
    HmcFixture() : map(2, 4, 16, 8192)
    {
        cfg.num_cubes = 2;
        cfg.vaults_per_cube = 4;
        hmc = std::make_unique<HmcBackend>(eq, cfg, stats);
    }

    StatRegistry stats;
    EventQueue eq;
    AddrMap map;
    HmcConfig cfg;
    std::unique_ptr<HmcBackend> hmc;
};

TEST_F(HmcFixture, ReadCostsOneRequestFiveResponseFlits)
{
    bool done = false;
    hmc->readBlock(0x1000, [&done] { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link0.flits"), 1u);  // 16 B request
    EXPECT_EQ(stats.get("link1.flits"), 5u);  // 80 B response
}

TEST_F(HmcFixture, WriteCostsFiveRequestFlitsNoResponse)
{
    bool done = false;
    hmc->writeBlock(0x1000, [&done] { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link0.flits"), 5u); // 80 B request
    EXPECT_EQ(stats.get("link1.flits"), 0u); // posted
}

TEST_F(HmcFixture, LinkSerializationBoundsThroughput)
{
    // 100 reads: response link must carry 100 x 80 B at 40 GB/s
    // (10 B/tick) => at least 800 ticks.
    int done = 0;
    for (int i = 0; i < 100; ++i)
        hmc->readBlock(64 * i * 977, [&done] { ++done; });
    while (eq.runOne()) {}
    EXPECT_EQ(done, 100);
    EXPECT_GE(eq.now(), 800u);
}

class EchoPim : public PimHandler
{
  public:
    void
    handle(PimPacket pkt, Respond respond) override
    {
        ++calls;
        respond(std::move(pkt));
    }
    int calls = 0;
};

TEST_F(HmcFixture, PimPacketsRouteToOwningVaultHandler)
{
    std::vector<EchoPim> handlers(hmc->totalVaults());
    for (unsigned v = 0; v < hmc->totalVaults(); ++v)
        hmc->attachPimHandler(v, &handlers[v]);

    Rng rng(4);
    int responses = 0;
    for (int i = 0; i < 200; ++i) {
        PimPacket pkt;
        pkt.op = 0;
        pkt.paddr = 64 * rng.below(1 << 20);
        pkt.input_size = 8;
        pkt.output_size = 8;
        const unsigned expect = map.decode(pkt.paddr).globalVault;
        const int before = handlers[expect].calls;
        hmc->sendPim(pkt, [&responses](PimPacket) { ++responses; });
        while (eq.runOne()) {}
        EXPECT_EQ(handlers[expect].calls, before + 1);
    }
    EXPECT_EQ(responses, 200);
}

TEST_F(HmcFixture, WriterPeiAckConsumesNoResponseBandwidth)
{
    EchoPim handler;
    for (unsigned v = 0; v < hmc->totalVaults(); ++v)
        hmc->attachPimHandler(v, &handler);
    PimPacket pkt;
    pkt.paddr = 0x40;
    pkt.input_size = 8;
    pkt.output_size = 0; // pure writer: posted ack
    bool done = false;
    hmc->sendPim(pkt, [&done](PimPacket) { done = true; });
    while (eq.runOne()) {}
    EXPECT_TRUE(done);
    EXPECT_EQ(stats.get("link1.flits"), 0u);
}

TEST(EmaCounter, HalvesEveryPeriod)
{
    EmaCounter ema(1000);
    ema.add(64, 0);
    EXPECT_DOUBLE_EQ(ema.value(0), 64.0);
    EXPECT_DOUBLE_EQ(ema.value(1000), 32.0);
    EXPECT_DOUBLE_EQ(ema.value(3000), 8.0);
    ema.add(8, 3000);
    EXPECT_DOUBLE_EQ(ema.value(3000), 16.0);
    EXPECT_DOUBLE_EQ(ema.value(4000), 8.0);
}

TEST(EmaCounter, ModerateGapMatchesRepeatedHalving)
{
    EmaCounter ema(1000);
    ema.add(64, 0);
    EXPECT_DOUBLE_EQ(ema.value(10000), 64.0 / 1024.0);
}

TEST(EmaCounter, LongIdleGapDecaysInConstantTime)
{
    // A multi-trillion-period idle gap: the closed-form decay must
    // evaluate instantly (the per-period halving loop would not
    // return within the lifetime of the test) and clamp to zero.
    EmaCounter ema(1000);
    ema.add(1u << 30, 0);
    const Tick far_future = 30'000'000'000'000'000ULL;
    EXPECT_DOUBLE_EQ(ema.value(far_future), 0.0);
    // The counter keeps working after the gap.
    ema.add(64, far_future);
    EXPECT_DOUBLE_EQ(ema.value(far_future), 64.0);
    EXPECT_DOUBLE_EQ(ema.value(far_future + 1000), 32.0);
}

TEST(EmaCounter, TinyResidueClampsToZero)
{
    // 2^-50 after 60 halvings of 1024 is below the 1e-12 floor; the
    // clamp keeps denormals out of the hot dispatch path.
    EmaCounter ema(1000);
    ema.add(1024, 0);
    EXPECT_DOUBLE_EQ(ema.value(60000), 0.0);
}

} // namespace
} // namespace pei
