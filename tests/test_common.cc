/**
 * @file
 * Unit tests for the common module: bit utilities, RNG determinism,
 * and the statistics registry.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pei
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xDEADBEEF, 0, 8), 0xEFu);
    EXPECT_EQ(bits(0xDEADBEEF, 8, 8), 0xBEu);
    EXPECT_EQ(bits(0xDEADBEEF, 16, 16), 0xDEADu);
}

TEST(BitUtil, FoldedXorStaysInWidth)
{
    for (std::uint64_t v :
         {0ULL, 1ULL, 0xFFFFULL, 0x123456789ABCDEFULL, ~0ULL}) {
        EXPECT_LT(foldedXor(v, 10), 1024u) << v;
        EXPECT_LT(foldedXor(v, 11), 2048u) << v;
    }
}

TEST(BitUtil, FoldedXorMixesHighBits)
{
    // Addresses differing only in high bits must fold differently
    // (this is what makes tag-less directory aliasing rare).
    const std::uint64_t a = 0x1000;
    const std::uint64_t b = 0x1000 | (1ULL << 40);
    EXPECT_NE(foldedXor(a, 11), foldedXor(b, 11));
}

TEST(BitUtil, FoldedXorOfZeroWidthIsZero)
{
    // 0 is a 1-entry table's only index.  The width is read at run
    // time, as PimDirectory's is, so the compiler cannot fold the call.
    volatile unsigned width = 0;
    for (std::uint64_t v : {0ULL, 1ULL, 0x40ULL, ~0ULL})
        EXPECT_EQ(foldedXor(v, width), 0u) << v;
}

TEST(BitUtil, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockOffset(0x12345), 5u);
    EXPECT_TRUE(fitsInBlock(0x12340, 64));
    EXPECT_FALSE(fitsInBlock(0x12341, 64));
    EXPECT_TRUE(fitsInBlock(0x1237F, 1));
    EXPECT_FALSE(fitsInBlock(0x1237F, 2));
    EXPECT_FALSE(fitsInBlock(0x12340, 0));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformCoversRange)
{
    Rng rng(9);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Stats, RegisterAndSnapshot)
{
    StatRegistry reg;
    Counter a, b;
    reg.add("x.a", &a);
    reg.add("x.b", &b);
    a += 5;
    ++b;
    EXPECT_EQ(reg.get("x.a"), 5u);
    EXPECT_EQ(reg.get("x.b"), 1u);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.at("x.a"), 5u);
}

TEST(Histogram, BucketsAreLog2Ranges)
{
    Histogram h;
    h.record(0); // bucket 0
    h.record(1); // bucket 1
    h.record(2); // bucket 2
    h.record(3); // bucket 2
    h.record(4); // bucket 3
    h.record(1023);
    h.record(1024);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1024u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(10), 1u); // 1023 in [512, 1023]
    EXPECT_EQ(h.bucketCount(11), 1u); // 1024 in [1024, 2047]
    EXPECT_EQ(Histogram::bucketLow(11), 1024u);
    EXPECT_EQ(Histogram::bucketHigh(11), 2047u);
}

TEST(Histogram, ExtremesLandInTheLastBucket)
{
    Histogram h;
    h.record(~0ULL);
    EXPECT_EQ(h.bucketCount(64), 1u);
    EXPECT_EQ(h.max(), ~0ULL);
    EXPECT_EQ(Histogram::bucketHigh(64), ~0ULL);
}

TEST(Histogram, MeanMinMaxAndReset)
{
    Histogram h;
    EXPECT_EQ(h.min(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.record(10);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
}

TEST(Stats, HistogramRegistrationAndReset)
{
    StatRegistry reg;
    Histogram h;
    reg.add("pmu.lat_ticks", &h);
    ASSERT_TRUE(reg.hasHistogram("pmu.lat_ticks"));
    EXPECT_FALSE(reg.hasHistogram("pmu.other"));
    h.record(5);
    EXPECT_EQ(reg.histogram("pmu.lat_ticks").count(), 1u);
}

TEST(Stats, JsonExportIsWellFormed)
{
    StatRegistry reg;
    Counter c;
    Histogram h;
    reg.add("x.events", &c);
    reg.add("x.lat_ticks", &h);
    c += 3;
    h.record(0);
    h.record(5);

    const std::string counters = reg.countersJson();
    EXPECT_EQ(counters, "{\"x.events\":3}");

    const std::string hists = reg.histogramsJson();
    EXPECT_NE(hists.find("\"x.lat_ticks\""), std::string::npos);
    EXPECT_NE(hists.find("\"count\":2"), std::string::npos);
    EXPECT_NE(hists.find("\"sum\":5"), std::string::npos);
    EXPECT_NE(hists.find("[0,0,1]"), std::string::npos); // bucket 0
    EXPECT_NE(hists.find("[4,7,1]"), std::string::npos); // bucket 3

    const std::string all = reg.toJson();
    EXPECT_EQ(all.find("{\"counters\":{"), 0u);
    EXPECT_NE(all.find("\"histograms\":{"), std::string::npos);
}

TEST(Stats, EmptyHistogramStillExported)
{
    // HostOnly runs must still emit all three PEI latency histograms;
    // empty ones export with count 0 and an empty bucket list.
    StatRegistry reg;
    Histogram h;
    reg.add("pmu.pei_latency_mem_ticks", &h);
    const std::string hists = reg.histogramsJson();
    EXPECT_NE(hists.find("\"pmu.pei_latency_mem_ticks\""),
              std::string::npos);
    EXPECT_NE(hists.find("\"count\":0"), std::string::npos);
    EXPECT_NE(hists.find("\"buckets\":[]"), std::string::npos);
}

TEST(Stats, AuditReportsViolationsWithValues)
{
    StatRegistry reg;
    Counter a, b;
    reg.add("y.ins", &a);
    reg.add("y.outs", &b);
    reg.addInvariant("y.ins == y.outs", [&a, &b] {
        if (a.value() == b.value())
            return std::string();
        return "ins=" + std::to_string(a.value()) +
               " != outs=" + std::to_string(b.value());
    });
    EXPECT_TRUE(reg.audit().empty());
    a += 2;
    ++b;
    const auto violations = reg.audit();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].find("y.ins == y.outs"), std::string::npos);
    EXPECT_NE(violations[0].find("ins=2"), std::string::npos);
    ++b;
    EXPECT_TRUE(reg.audit().empty());
}

TEST(Stats, PercentileInterpolates)
{
    // Samples 1..8 land in log2 buckets 1:[1,2) 2:[2,4) 3:[4,8)
    // 4:[8,16) with counts 1/2/4/1.  percentile() targets fractional
    // rank p*(count-1) and spreads each bucket's samples uniformly
    // over [bucketLow, bucketHigh+1): p50 -> rank 3.5, bucket 3 holds
    // ranks 3..6, so 4 + 4*(0.5/4) = 4.5; p95 -> rank 6.65, so
    // 4 + 4*(3.65/4) = 7.65.
    Histogram h;
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 4.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 7.65);
    // The extremes clamp to the recorded min/max.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(Stats, PercentileClampsToObservedRange)
{
    // 0..99 once each: p50 -> rank 49.5 inside bucket [32,64) (ranks
    // 32..63), 32 + 32*(17.5/32) = 49.5 exactly.  p99 -> rank 98.01
    // inside [64,128), whose uniform spread would extrapolate to
    // ~124 — the clamp pins it to the observed max instead.
    Histogram h;
    for (std::uint64_t v = 0; v < 100; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 49.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 24.75);
}

TEST(Stats, PercentileEdgeCases)
{
    Histogram empty;
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    Histogram one;
    one.record(42);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(1.0), 42.0);

    // Out-of-range p is clamped, not an error.
    EXPECT_DOUBLE_EQ(one.percentile(-1.0), 42.0);
    EXPECT_DOUBLE_EQ(one.percentile(2.0), 42.0);
}

TEST(Stats, PercentileAllSamplesInOneBucket)
{
    // Identical samples all land in one log2 bucket ([64,128) here).
    // The uniform in-bucket spread would report values anywhere in
    // that range; the observed-min/max clamp must collapse every
    // percentile to the one recorded value.
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(100);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Stats, HistogramJsonCarriesPercentiles)
{
    StatRegistry reg;
    Histogram h;
    reg.add("x.lat", &h);
    for (std::uint64_t v = 1; v <= 8; ++v)
        h.record(v);
    const std::string hists = reg.histogramsJson();
    EXPECT_NE(hists.find("\"p50\":4.5"), std::string::npos);
    EXPECT_NE(hists.find("\"p95\":7.65"), std::string::npos);
    EXPECT_NE(hists.find("\"p99\":"), std::string::npos);
}

TEST(Types, Conversions)
{
    EXPECT_EQ(nsToTicks(1.0), 4u);
    EXPECT_EQ(nsToTicks(13.75), 55u);
    EXPECT_EQ(cyclesToTicks(10, 4000), 10u);
    EXPECT_EQ(cyclesToTicks(10, 2000), 20u);
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
}

} // namespace
} // namespace pei
