/**
 * @file
 * Integration tests: every §5 workload runs on the simulated machine
 * and its output is validated against the host-side reference
 * implementation, under multiple execution modes.  These are the
 * strongest end-to-end checks in the suite: they exercise kernels,
 * PEI atomicity, coherence (back-invalidation/writeback), pfence,
 * the locality monitor, and the DRAM/link models together.
 */

#include <gtest/gtest.h>

#include "fixture.hh"
#include "workloads/analytics.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/input_cache.hh"
#include "workloads/ml.hh"
#include "workloads/workload.hh"

namespace pei
{
namespace
{

using fixture::workloadConfig;

struct Case
{
    WorkloadKind kind;
    ExecMode mode;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return std::string(kindName(info.param.kind)) + "_" +
           fixture::execModeTestName(info.param.mode);
}

class WorkloadValidation : public ::testing::TestWithParam<Case>
{
};

TEST_P(WorkloadValidation, ProducesReferenceOutput)
{
    const Case c = GetParam();
    System sys(workloadConfig(c.mode));
    Runtime rt(sys);

    // Mini inputs: full algorithmic structure, fast to simulate.
    std::unique_ptr<Workload> w;
    switch (c.kind) {
      case WorkloadKind::ATF:
        w = std::make_unique<AtfWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::BFS:
        w = std::make_unique<BfsWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::PR:
        w = std::make_unique<PageRankWorkload>(1024, 8192, 7, 2);
        break;
      case WorkloadKind::SP:
        w = std::make_unique<SsspWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::WCC:
        w = std::make_unique<WccWorkload>(1024, 4096, 7);
        break;
      case WorkloadKind::HJ:
        w = std::make_unique<HashJoinWorkload>(2048, 8192, 7);
        break;
      case WorkloadKind::HG:
        w = std::make_unique<HistogramWorkload>(1u << 14, 7);
        break;
      case WorkloadKind::RP:
        w = std::make_unique<RadixPartitionWorkload>(1u << 14, 7, 2);
        break;
      case WorkloadKind::SC:
        w = std::make_unique<StreamclusterWorkload>(256, 32, 4, 7);
        break;
      case WorkloadKind::SVM:
        w = std::make_unique<SvmWorkload>(16, 512, 7);
        break;
    }

    w->setup(rt);
    w->spawn(rt, sys.numCores());
    const Tick elapsed = rt.run();
    EXPECT_GT(elapsed, 0u);
    EXPECT_GT(w->peiCount(), 0u);

    std::string msg;
    EXPECT_TRUE(w->validate(sys, msg)) << msg;
    sys.caches().checkInvariants();
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (ExecMode mode :
             {ExecMode::HostOnly, ExecMode::PimOnly,
              ExecMode::LocalityAware}) {
            cases.push_back({kind, mode});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadValidation,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(WorkloadFactory, MakesEveryKindAndSize)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (InputSize size :
             {InputSize::Small, InputSize::Medium, InputSize::Large}) {
            auto w = makeWorkload(kind, size);
            ASSERT_NE(w, nullptr);
            EXPECT_STREQ(w->name(), kindName(kind));
        }
    }
}

TEST(GraphGen, RmatIsPowerLawSkewed)
{
    EdgeList el = genRmat(4096, 32768, 11);
    ASSERT_EQ(el.edges.size(), 32768u);
    std::vector<std::uint64_t> deg(4096, 0);
    for (auto &[s, d] : el.edges) {
        (void)d;
        ++deg[s];
    }
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t top = 0;
    for (int i = 0; i < 41; ++i) // top 1% of vertices
        top += deg[i];
    // Power-law graphs concentrate a large edge share in few hubs.
    EXPECT_GT(top, el.edges.size() / 5);
}

TEST(GraphGen, UniformIsNotSkewed)
{
    EdgeList el = genUniform(4096, 32768, 11);
    std::vector<std::uint64_t> deg(4096, 0);
    for (auto &[s, d] : el.edges) {
        (void)d;
        ++deg[s];
    }
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t top = 0;
    for (int i = 0; i < 41; ++i)
        top += deg[i];
    EXPECT_LT(top, el.edges.size() / 10);
}

TEST(GraphGen, CsrMatchesEdgeList)
{
    SystemConfig cfg = workloadConfig(ExecMode::LocalityAware);
    System sys(cfg);
    Runtime rt(sys);
    const EdgeList el = genRmat(512, 4096, 3);
    const HostCsr csr = buildCsr(el);
    CsrGraph g(rt, csr);
    ASSERT_EQ(g.numVertices(), 512u);
    ASSERT_EQ(g.numEdges(), 4096u);
    ASSERT_GE(8 * g.numEdges(), 3 * page_size); // col spans >= 3 pages
    // Each row holds its source's edges in edge-list order.
    std::vector<std::vector<std::uint32_t>> out(512);
    for (const auto &[s, d] : el.edges)
        out[s].push_back(d);
    ASSERT_EQ(g.rowPtr().size(), 513u);
    EXPECT_EQ(g.rowPtr()[0], 0u);
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
        ASSERT_EQ(g.outDegree(v), out[v].size()) << "vertex " << v;
        for (std::uint64_t k = 0; k < out[v].size(); ++k)
            EXPECT_EQ(g.colIdx()[g.rowPtr()[v] + k], out[v][k]);
    }
    // The simulated-memory copy agrees with the host CSR, entry for
    // entry.
    for (std::uint64_t v = 0; v <= g.numVertices(); ++v)
        EXPECT_EQ(sys.memory().read<std::uint64_t>(g.rowPtrAddr(v)),
                  g.rowPtr()[v]) << "row " << v;
    for (std::uint64_t e = 0; e < g.numEdges(); ++e)
        EXPECT_EQ(sys.memory().read<std::uint64_t>(g.colIdxAddr(e)),
                  g.colIdx()[e]) << "col " << e;
}

/** FNV-1a-64 over the little-endian bytes of 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
};

std::uint64_t
edgeFingerprint(const EdgeList &el)
{
    Fnv1a f;
    for (const auto &[s, d] : el.edges) {
        f.add(s);
        f.add(d);
    }
    return f.h;
}

TEST(GraphGen, RmatMatchesPinnedFingerprint)
{
    // Every simulated result over a graph input rests on genRmat's
    // exact edge sequence; these constants pin it bit for bit.
    struct Pin
    {
        std::uint64_t vertices, edges, seed, fingerprint;
    };
    const Pin pins[] = {
        {4096, 32768, 1, 0x6d5dd89ebb3bf5abULL},
        {4096, 32768, 2, 0x9864a2caca6de059ULL},
        {4096, 32768, 3, 0xd6640a8ba8c6fb46ULL},
        // Not a power of two: out-of-range draws are rejected.
        {3908, 9240, 1, 0xbd7877792b2233e8ULL},
        {131072, 655360, 1, 0x9da20dfbfd48fc12ULL},
    };
    for (const Pin &p : pins) {
        const EdgeList el = genRmat(p.vertices, p.edges, p.seed);
        ASSERT_EQ(el.edges.size(), p.edges);
        EXPECT_EQ(edgeFingerprint(el), p.fingerprint)
            << p.vertices << " vertices, " << p.edges << " edges, seed "
            << p.seed;
    }
}

TEST(GraphGen, SymmetrizedCsrMatchesPinnedFingerprint)
{
    // WCC's input form: the CSR of a symmetrized R-MAT graph, row
    // offsets then column indices.
    const HostCsr csr = buildCsr(symmetrize(genRmat(3908, 9240, 1)));
    ASSERT_EQ(csr.col.size(), 2 * 9240u);
    Fnv1a f;
    for (const std::uint64_t r : csr.row)
        f.add(r);
    for (const std::uint32_t c : csr.col)
        f.add(c);
    EXPECT_EQ(f.h, 0xfcb06848299ac799ULL);
}

TEST(InputCache, GraphRunsShareOneCsr)
{
    clearInputCache();
    const std::uint64_t *rows[2];
    for (const std::uint64_t *&row : rows) {
        System sys(workloadConfig(ExecMode::PimOnly));
        Runtime rt(sys);
        const auto w = makeWorkload(WorkloadKind::BFS, InputSize::Small, 1);
        w->setup(rt);
        row = dynamic_cast<const GraphWorkloadBase &>(*w)
                  .csrGraph()
                  .rowPtr()
                  .data();
    }
    EXPECT_EQ(rows[0], rows[1]);
    const InputCacheCounters c = inputCacheCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    clearInputCache();
}

TEST(InputCache, WccValidatesAgainstSharedCsr)
{
    // WCC's union-find reference walks the cached CSR of the
    // symmetrized input, which both runs share.
    clearInputCache();
    for (ExecMode mode : {ExecMode::HostOnly, ExecMode::PimOnly}) {
        System sys(workloadConfig(mode));
        Runtime rt(sys);
        WccWorkload w(1024, 4096, 7);
        w.setup(rt);
        w.spawn(rt, sys.numCores(), 0);
        rt.run();
        std::string msg;
        EXPECT_TRUE(w.validate(sys, msg)) << msg;
    }
    const InputCacheCounters c = inputCacheCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    clearInputCache();
}

TEST(GraphGen, FigureGraphsAreAscendingAndNine)
{
    const auto &specs = figureGraphs();
    ASSERT_EQ(specs.size(), 9u);
    for (std::size_t i = 1; i < specs.size(); ++i)
        EXPECT_GT(specs[i].vertices, specs[i - 1].vertices);
}

} // namespace
} // namespace pei
