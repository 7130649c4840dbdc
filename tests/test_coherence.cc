/**
 * @file
 * CoherencePolicy seam tests (ctest label: tier1).
 *
 * Directed scenarios for the LazyPIM-style speculative policy —
 * clean commit, a true write conflict forcing exactly one rollback,
 * a signature false positive (aliasing bits) forcing a spurious
 * rollback with architectural results still golden-clean — plus the
 * policy-conditional invariant audits and an eager-vs-lazy
 * differential sweep over the full simfuzz op set.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/fuzz_case.hh"
#include "coherence/policy.hh"
#include "coherence/signature.hh"
#include "fixture.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace
{

// ------------------------------------------------- BlockSignature

TEST(BlockSignature, NeverForgetsAnInsertedBlock)
{
    BlockSignature sig(256);
    for (Addr b = 0; b < 500; b += 7)
        sig.add(b);
    for (Addr b = 0; b < 500; b += 7)
        EXPECT_TRUE(sig.mayContain(b)) << "block " << b;
}

TEST(BlockSignature, PopcountTracksInsertionsAndClearResets)
{
    BlockSignature sig(256);
    EXPECT_EQ(sig.popcount(), 0u);
    sig.add(1);
    const unsigned one = sig.popcount();
    EXPECT_GE(one, 1u);
    EXPECT_LE(one, 2u); // k = 2 probes, possibly aliasing
    for (Addr b = 0; b < 64; ++b)
        sig.add(b);
    EXPECT_LE(sig.popcount(), 128u);
    sig.clear();
    EXPECT_EQ(sig.popcount(), 0u);
    EXPECT_FALSE(sig.mayContain(1));
}

TEST(BlockSignature, ProbesExposeDeterministicAliasing)
{
    // 8-bit signatures have at most 64 ordered probe pairs, so among
    // 65 blocks two must alias (pigeonhole): adding one makes the
    // other a false positive.  probes() is the hook directed tests
    // use to construct such pairs deterministically.
    bool found = false;
    for (Addr a = 0; a < 65 && !found; ++a) {
        for (Addr b = a + 1; b < 65 && !found; ++b) {
            if (BlockSignature::probes(a, 8) !=
                BlockSignature::probes(b, 8)) {
                continue;
            }
            BlockSignature sig(8);
            sig.add(a);
            EXPECT_TRUE(sig.mayContain(b));
            found = true;
        }
    }
    EXPECT_TRUE(found) << "no aliasing pair among 65 blocks";
}

// ------------------------------------------------- policy registry

TEST(CoherenceRegistry, BuiltinsAreRegistered)
{
    const auto names = coherencePolicyNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "eager"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "lazy"),
              names.end());
}

// ------------------------------------------------- directed scenarios

SystemConfig
lazyConfig(unsigned sig_bits = 256)
{
    SystemConfig cfg = fixture::smallConfig(ExecMode::PimOnly);
    cfg.pim.coherence.policy = "lazy";
    cfg.pim.coherence.signature_bits = sig_bits;
    return cfg;
}

std::uint64_t
stat(System &sys, const char *name)
{
    return sys.stats().get(name);
}

/** N writer PEIs on disjoint, host-untouched blocks: no conflict. */
Task
cleanKernel(Ctx &ctx, Addr base, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        co_await ctx.pei(PeiOpcode::Inc64,
                         base + static_cast<Addr>(i) * block_size,
                         nullptr, 0);
    }
    co_await ctx.drain();
}

TEST(LazyCoherence, CleanCommitNoConflictNoRollback)
{
    System sys(lazyConfig());
    Runtime rt(sys);
    const unsigned n = 40;
    const Addr base = rt.alloc(n * block_size);
    for (unsigned i = 0; i < n; ++i)
        sys.memory().write<std::uint64_t>(base + i * block_size, 7);

    rt.spawn(0, [&](Ctx &ctx) { return cleanKernel(ctx, base, n); });
    rt.run();

    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(sys.memory().read<std::uint64_t>(base + i * block_size),
                  8u);
    }
    EXPECT_EQ(stat(sys, "pmu.peis_mem"), n);
    EXPECT_GE(stat(sys, "coh.commits"), 1u);
    EXPECT_EQ(stat(sys, "coh.commits"), stat(sys, "coh.batches"));
    EXPECT_EQ(stat(sys, "coh.conflicts"), 0u);
    EXPECT_EQ(stat(sys, "coh.rollbacks"), 0u);
    // Lazy elided every per-offload action: the eager conservation
    // pair (writers == back-invalidations) would be violated here,
    // which is exactly why it is registered policy-conditionally.
    EXPECT_EQ(stat(sys, "cache.back_invalidations"), 0u);
    EXPECT_GT(stat(sys, "pmu.peis_mem_writers"), 0u);
    EXPECT_TRUE(sys.stats().audit().empty());
}

/** Dirty the target block host-side, then offload a writer PEI to
 *  it: the commit scan must find the true conflict. */
Task
conflictKernel(Ctx &ctx, Addr target)
{
    // fwrite + timing store: the block is Modified in this core's L1
    // when the PEI batch later commits.
    ctx.fwrite<std::uint64_t>(target + 8, 99);
    co_await ctx.store(target + 8);
    co_await ctx.pei(PeiOpcode::Inc64, target, nullptr, 0);
    co_await ctx.drain();
}

TEST(LazyCoherence, TrueWriteConflictRollsBackExactlyOnce)
{
    System sys(lazyConfig());
    Runtime rt(sys);
    const Addr target = rt.alloc(block_size);
    sys.memory().write<std::uint64_t>(target, 5);

    rt.spawn(0, [&](Ctx &ctx) { return conflictKernel(ctx, target); });
    rt.run();

    // Architectural results are exact despite the rollback:
    // functional execution happened exactly once.
    EXPECT_EQ(sys.memory().read<std::uint64_t>(target), 6u);
    EXPECT_EQ(sys.memory().read<std::uint64_t>(target + 8), 99u);

    EXPECT_EQ(stat(sys, "coh.commits"), 1u);
    EXPECT_GE(stat(sys, "coh.conflicts"), 1u);
    EXPECT_GE(stat(sys, "coh.exact_conflicts"), 1u);
    EXPECT_EQ(stat(sys, "coh.rollbacks"), 1u);
    EXPECT_GE(stat(sys, "coh.reexec_peis"), 1u);
    EXPECT_TRUE(sys.stats().audit().empty());
}

TEST(LazyCoherence, SkippedConflictCheckBreaksTheExactAudit)
{
    System sys(lazyConfig());
    sys.pmu().coherence().injectSkipConflictCheck(1);
    Runtime rt(sys);
    const Addr target = rt.alloc(block_size);
    sys.memory().write<std::uint64_t>(target, 5);

    rt.spawn(0, [&](Ctx &ctx) { return conflictKernel(ctx, target); });
    rt.run();

    // The exact shadow sets saw the true conflict; the (skipped)
    // signature check reported none — the Bloom no-false-negative
    // audit must flag it.
    EXPECT_EQ(stat(sys, "coh.conflicts"), 0u);
    EXPECT_GE(stat(sys, "coh.exact_conflicts"), 1u);
    const auto audit = sys.stats().audit();
    ASSERT_FALSE(audit.empty());
    bool mentions_exact = false;
    for (const std::string &v : audit)
        mentions_exact |= v.find("exact_conflicts") != std::string::npos;
    EXPECT_TRUE(mentions_exact);
}

/** Store to an innocent block whose 8-bit probes alias the PEI
 *  target's: the commit scan sees a false positive. */
Task
aliasKernel(Ctx &ctx, Addr pei_target, Addr dirty_alias)
{
    ctx.fwrite<std::uint64_t>(dirty_alias, 42);
    co_await ctx.store(dirty_alias);
    co_await ctx.pei(PeiOpcode::Inc64, pei_target, nullptr, 0);
    co_await ctx.drain();
}

TEST(LazyCoherence, SignatureFalsePositiveForcesSpuriousRollback)
{
    System sys(lazyConfig(/*sig_bits=*/8));
    Runtime rt(sys);

    // Find two blocks whose *physical* block numbers share both
    // 8-bit probe positions (≤ 64 ordered pairs, so 65+ candidate
    // blocks must contain an aliasing pair).
    const unsigned candidates = 128;
    const Addr base = rt.alloc(candidates * block_size);
    Addr pei_target = 0, dirty_alias = 0;
    bool found = false;
    for (unsigned i = 0; i < candidates && !found; ++i) {
        const Addr pi =
            sys.memory().translate(base + i * block_size) >> block_shift;
        for (unsigned j = i + 1; j < candidates && !found; ++j) {
            const Addr pj =
                sys.memory().translate(base + j * block_size) >>
                block_shift;
            if (BlockSignature::probes(pi, 8) !=
                BlockSignature::probes(pj, 8)) {
                continue;
            }
            pei_target = base + i * block_size;
            dirty_alias = base + j * block_size;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    sys.memory().write<std::uint64_t>(pei_target, 10);

    rt.spawn(0, [&](Ctx &ctx) {
        return aliasKernel(ctx, pei_target, dirty_alias);
    });
    rt.run();

    // The rollback was spurious: results are still golden-clean.
    EXPECT_EQ(sys.memory().read<std::uint64_t>(pei_target), 11u);
    EXPECT_EQ(sys.memory().read<std::uint64_t>(dirty_alias), 42u);

    EXPECT_GE(stat(sys, "coh.sig_false_positives"), 1u);
    EXPECT_GE(stat(sys, "coh.conflicts"), 1u);
    EXPECT_GE(stat(sys, "coh.rollbacks"), 1u);
    EXPECT_EQ(stat(sys, "coh.exact_conflicts"), 0u);
    EXPECT_TRUE(sys.stats().audit().empty());
}

// ---------------------------------------- eager invariants still bite

TEST(EagerCoherence, SkippedBackInvalidationBreaksTheAudit)
{
    // The eager conservation pair must stay armed under the default
    // policy even though it is now registered conditionally.
    SystemConfig cfg = fixture::smallConfig(ExecMode::PimOnly);
    ASSERT_EQ(cfg.pim.coherence.policy, "eager");
    System sys(cfg);
    sys.caches().injectSkipBackInvalidate(1);
    Runtime rt(sys);
    const Addr target = rt.alloc(block_size);
    sys.memory().write<std::uint64_t>(target, 0);

    rt.spawn(0, [&](Ctx &ctx) { return cleanKernel(ctx, target, 1); });
    rt.run();

    EXPECT_FALSE(sys.stats().audit().empty());
}

// ------------------------------------- differential: eager == lazy

// The full simfuzz op set (every PEI opcode, loads/stores/fences,
// async issue) run differentially against the golden model under
// both policies: the lazy policy is strictly a timing/traffic model,
// so architectural results must match for every seed.
TEST(CoherenceDifferential, EagerAndLazyProduceIdenticalResults)
{
    for (const char *policy : {"eager", "lazy"}) {
        fuzz::FuzzOptions opt;
        ASSERT_EQ(opt.pins.assign(*findKnob("coherence"), policy), "");
        for (std::uint64_t i = 0; i < 12; ++i) {
            fuzz::FuzzCaseId id;
            id.seed = fuzz::caseSeed(opt.master_seed, i);
            id.config = static_cast<unsigned>(i % opt.num_configs);
            const fuzz::FuzzCaseResult r =
                fuzz::runFuzzCase(id, opt, nullptr);
            EXPECT_TRUE(r.ok()) << policy << ": " << r.summary(opt);
        }
    }
}

} // namespace
} // namespace pei
