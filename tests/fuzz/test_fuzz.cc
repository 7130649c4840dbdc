/**
 * @file
 * simfuzz test suite (ctest label: fuzz).
 *
 * Unit tests pin down the program generator's contracts — replay
 * determinism, prefix/mask shrinking identities, and the footprint
 * discipline that makes the sequential golden model sound — and a
 * deterministic ~100-case smoke runs the full differential checker.
 * The self-tests prove the checker has teeth: each hidden injected
 * bug must be caught quickly and shrink to a tiny reproducer.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "check/fuzz_case.hh"
#include "check/golden.hh"
#include "check/program.hh"

namespace pei
{
namespace
{

using namespace fuzz;

TEST(FuzzProgram, RegenerationIsDeterministic)
{
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xABCDEFULL}) {
        const FuzzProgram a = generateProgram(seed);
        const FuzzProgram b = generateProgram(seed);
        EXPECT_EQ(a.threads_total, b.threads_total);
        EXPECT_EQ(a.init_image, b.init_image);
        EXPECT_EQ(a.shared_class, b.shared_class);
        ASSERT_EQ(a.streams.size(), b.streams.size());
        for (std::size_t i = 0; i < a.streams.size(); ++i)
            EXPECT_EQ(a.streams[i], b.streams[i]);
    }
}

TEST(FuzzProgram, PrefixTruncatesEveryStreamInPlace)
{
    const std::uint64_t seed = 77;
    const FuzzProgram full = generateProgram(seed);
    const FuzzProgram cut = generateProgram(seed, 3);
    EXPECT_EQ(cut.init_image, full.init_image);
    ASSERT_EQ(cut.streams.size(), full.streams.size());
    for (std::size_t i = 0; i < cut.streams.size(); ++i) {
        const std::size_t want =
            std::min<std::size_t>(3, full.streams[i].size());
        ASSERT_EQ(cut.streams[i].size(), want);
        for (std::size_t k = 0; k < want; ++k)
            EXPECT_EQ(cut.streams[i][k], full.streams[i][k]);
    }
}

TEST(FuzzProgram, MaskDropsThreadsWithoutPerturbingSurvivors)
{
    const std::uint64_t seed = 99;
    const FuzzProgram full = generateProgram(seed);
    ASSERT_GE(full.threads_total, 1u);
    const std::uint32_t mask = 0b10101;
    const FuzzProgram masked = generateProgram(seed, full_prefix, mask);
    ASSERT_EQ(masked.thread_ids.size(), masked.streams.size());
    for (std::size_t k = 0; k < masked.thread_ids.size(); ++k) {
        const unsigned id = masked.thread_ids[k];
        EXPECT_TRUE(mask & (1u << id));
        // Streams are seeded per generator-thread id, so survivors
        // are byte-identical to their unmasked counterparts.
        EXPECT_EQ(masked.streams[k], full.streams[id]);
    }
    // The footprint layout never depends on the mask.
    EXPECT_EQ(masked.init_image, full.init_image);
    EXPECT_EQ(masked.total_blocks, full.total_blocks);
}

TEST(FuzzProgram, FootprintDisciplineMakesGoldenSound)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const FuzzProgram p = generateProgram(seed);
        for (std::size_t ti = 0; ti < p.streams.size(); ++ti) {
            const unsigned tid = p.thread_ids[ti];
            const std::uint32_t priv_lo = p.privBlockIndex(tid, 0);
            const std::uint32_t priv_hi =
                priv_lo + p.priv_blocks_per_thread;
            for (const FuzzOp &o : p.streams[ti]) {
                switch (o.kind) {
                  case OpKind::Pei:
                    if (peiOpInfo(o.op).writes) {
                        // Writers hit shared blocks of their class
                        // only — all interleavings commute.
                        ASSERT_GE(o.block, p.ro_blocks);
                        ASSERT_LT(o.block,
                                  p.ro_blocks + p.shared_blocks);
                        EXPECT_EQ(o.op,
                                  p.shared_class[o.block - p.ro_blocks]);
                    } else {
                        // Readers only ever see the initial image.
                        EXPECT_LT(o.block, p.ro_blocks);
                    }
                    break;
                  case OpKind::Load:
                    EXPECT_TRUE(o.block < p.ro_blocks ||
                                (o.block >= priv_lo &&
                                 o.block < priv_hi));
                    break;
                  case OpKind::Store:
                    EXPECT_GE(o.block, priv_lo);
                    EXPECT_LT(o.block, priv_hi);
                    break;
                  case OpKind::Pfence:
                  case OpKind::Compute:
                    break;
                }
            }
        }
    }
}

TEST(FuzzGolden, IsDeterministic)
{
    const FuzzProgram p = generateProgram(1234);
    const GoldenResult a = runGolden(p);
    const GoldenResult b = runGolden(p);
    EXPECT_EQ(a.image, b.image);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t ti = 0; ti < a.outputs.size(); ++ti) {
        ASSERT_EQ(a.outputs[ti].size(), b.outputs[ti].size());
        for (std::size_t k = 0; k < a.outputs[ti].size(); ++k) {
            EXPECT_EQ(a.outputs[ti][k].size, b.outputs[ti][k].size);
            EXPECT_EQ(a.outputs[ti][k].bytes, b.outputs[ti][k].bytes);
        }
    }
}

TEST(FuzzReplay, FileRoundTrips)
{
    FuzzCaseId id;
    id.seed = 0xDEADBEEFCAFEULL;
    id.config = 2;
    id.prefix = 7;
    id.thread_mask = 0x15;
    FuzzOptions opt;
    opt.master_seed = 999;
    opt.num_configs = 5;
    opt.probe_every = 32;
    opt.inject = InjectBug::SkipUnlock;
    // Every knob pinned off its default.
    const std::map<std::string, std::string> off = {
        {"mem_backend", "ddr"},
        {"cubes", "8"},
        {"pei_batch", "8"},
    };
    ASSERT_EQ(off.size(), knobTable().size());
    for (const Knob &k : knobTable()) {
        ASSERT_EQ(opt.pins.assign(k, off.at(k.key)), "") << k.key;
        ASSERT_NE(k.get(SystemConfig::scaled()), off.at(k.key)) << k.key;
    }

    FuzzCaseId id2;
    FuzzOptions opt2;
    ASSERT_TRUE(parseReplayFile(replayFileContents(id, opt), id2, opt2));
    EXPECT_EQ(id2.seed, id.seed);
    EXPECT_EQ(id2.config, id.config);
    EXPECT_EQ(id2.prefix, id.prefix);
    EXPECT_EQ(id2.thread_mask, id.thread_mask);
    std::map<std::string, std::string> pinned;
    for (const auto &[knob, value] : opt2.pins)
        pinned[knob->key] = value;
    EXPECT_EQ(pinned, off);
    EXPECT_EQ(opt2.master_seed, opt.master_seed);
    EXPECT_EQ(opt2.num_configs, opt.num_configs);
    EXPECT_EQ(opt2.probe_every, opt.probe_every);
    EXPECT_EQ(opt2.inject, opt.inject);

    EXPECT_FALSE(parseReplayFile("no key-values here", id2, opt2));
    EXPECT_FALSE(parseReplayFile("config=1\n", id2, opt2)); // no seed
}

// The deterministic smoke: 100 cases x 4 fuzzed configs x 4 modes,
// differential + probes, all clean.  Fixed master seed, so this is
// byte-for-byte the same work on every run.
TEST(FuzzSmoke, HundredCasesAcrossConfigsAndModesAreClean)
{
    FuzzOptions opt; // master seed 12345, 4 configs
    for (std::uint64_t i = 0; i < 100; ++i) {
        FuzzCaseId id;
        id.seed = caseSeed(opt.master_seed, i);
        id.config = static_cast<unsigned>(i % opt.num_configs);
        const FuzzCaseResult r = runFuzzCase(id, opt, nullptr);
        EXPECT_TRUE(r.ok()) << r.summary(opt);
    }
}

/**
 * Checker self-test: with @p bug injected, some case among the first
 * 200 must fail, and shrinking must reduce it to <= @p max_ops ops.
 */
void
expectInjectionCaughtAndShrunk(InjectBug bug, unsigned max_ops = 32)
{
    FuzzOptions opt;
    opt.inject = bug;
    for (std::uint64_t i = 0; i < 200; ++i) {
        FuzzCaseId id;
        id.seed = caseSeed(opt.master_seed, i);
        id.config = static_cast<unsigned>(i % opt.num_configs);
        const FuzzCaseResult r = runFuzzCase(id, opt, nullptr);
        if (r.ok())
            continue;
        const FuzzCaseResult min = shrinkCase(id, opt);
        ASSERT_FALSE(min.ok())
            << "failure did not reproduce while shrinking";
        EXPECT_LE(min.total_ops, max_ops) << min.summary(opt);
        SUCCEED() << "caught by case " << i << ": " << min.summary(opt);
        return;
    }
    FAIL() << "injected bug '" << injectBugName(bug)
           << "' survived 200 cases undetected";
}

TEST(FuzzSelfTest, CatchesSkippedDirectoryUnlock)
{
    expectInjectionCaughtAndShrunk(InjectBug::SkipUnlock);
}

TEST(FuzzSelfTest, CatchesSkippedBackInvalidation)
{
    expectInjectionCaughtAndShrunk(InjectBug::SkipBackInval);
}

} // namespace
} // namespace pei
