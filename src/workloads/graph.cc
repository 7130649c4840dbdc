#include "graph.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pei
{

EdgeList
genRmat(std::uint64_t vertices, std::uint64_t edges, std::uint64_t seed)
{
    fatal_if(vertices < 2, "R-MAT needs at least two vertices");
    const unsigned levels = ceilLog2(vertices);
    Rng rng(seed);

    EdgeList el;
    el.num_vertices = vertices;
    el.edges.reserve(edges);

    // Base parameters with per-edge multiplicative noise (the
    // standard "noisy SKG" smoothing): without it, R-MAT piles an
    // unrealistically large share of all edges onto a handful of
    // apex vertices (real social graphs' max in-degree is a fraction
    // of a percent of the edges), which would turn PEI atomicity
    // into an artificial serialization bottleneck.
    constexpr double base_a = 0.57, base_b = 0.19, base_c = 0.19;
    while (el.edges.size() < edges) {
        std::uint64_t src = 0, dst = 0;
        for (unsigned l = 0; l < levels; ++l) {
            const double noise = 0.75 + 0.5 * rng.uniform();
            double a = base_a * noise;
            double b = base_b, c = base_c;
            const double total = a + b + c + (1.0 - base_a - base_b -
                                              base_c);
            a /= total;
            b /= total;
            c /= total;
            const double u = rng.uniform();
            // Quadrant q in 0..3 (a: top-left, b: top-right, c:
            // bottom-left, d: bottom-right) is the first partial sum
            // above u.  Rounding is monotone, so a <= a + b <= a + b + c
            // holds in doubles too and the comparisons below are
            // nested: q is the number that hold, found with no
            // data-dependent branch.  Its two bits are the level's src
            // and dst bits.
            const unsigned q = unsigned{u >= a} + unsigned{u >= a + b} +
                               unsigned{u >= a + b + c};
            src = (src << 1) | (q >> 1);
            dst = (dst << 1) | (q & 1);
        }
        if (src >= vertices || dst >= vertices || src == dst)
            continue;
        el.edges.emplace_back(static_cast<std::uint32_t>(src),
                              static_cast<std::uint32_t>(dst));
    }

    // Cap apex in-degree.  Even noisy R-MAT concentrates edges on
    // its top vertices an order of magnitude harder than real
    // social graphs (soc-LiveJournal1's max in-degree is ~0.03% of
    // its edges; plain R-MAT exceeds 1%).  Excess in-edges of
    // over-cap vertices are redirected to uniform targets, keeping
    // the power-law body while matching real apex concentration.
    const std::uint64_t cap = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(0.0005 * static_cast<double>(edges)));
    std::vector<std::uint64_t> indeg(vertices, 0);
    for (auto &[s, d] : el.edges) {
        (void)s;
        ++indeg[d];
    }
    std::vector<std::uint64_t> kept(vertices, 0);
    for (auto &[s, d] : el.edges) {
        if (indeg[d] <= cap)
            continue;
        if (++kept[d] > cap) {
            std::uint32_t nd;
            do {
                nd = static_cast<std::uint32_t>(rng.below(vertices));
            } while (nd == s);
            d = nd;
        }
    }
    return el;
}

EdgeList
genUniform(std::uint64_t vertices, std::uint64_t edges, std::uint64_t seed)
{
    Rng rng(seed);
    EdgeList el;
    el.num_vertices = vertices;
    el.edges.reserve(edges);
    while (el.edges.size() < edges) {
        const auto src = static_cast<std::uint32_t>(rng.below(vertices));
        const auto dst = static_cast<std::uint32_t>(rng.below(vertices));
        if (src == dst)
            continue;
        el.edges.emplace_back(src, dst);
    }
    return el;
}

EdgeList
symmetrize(const EdgeList &el)
{
    EdgeList out;
    out.num_vertices = el.num_vertices;
    out.edges.reserve(el.edges.size() * 2);
    for (const auto &[s, d] : el.edges) {
        out.edges.emplace_back(s, d);
        out.edges.emplace_back(d, s);
    }
    return out;
}

HostCsr
buildCsr(const EdgeList &el)
{
    HostCsr csr;
    csr.num_vertices = el.num_vertices;
    // Counting sort by source vertex.  Source s fills its slots
    // through the cursor row[s + 1], which starts at s's first slot
    // and ends one past its last: the value row[s + 1] must hold.
    // The extra last entry only carries the edge total.
    std::vector<std::uint64_t> &row = csr.row;
    row.assign(el.num_vertices + 2, 0);
    for (const auto &[s, d] : el.edges) {
        (void)d;
        ++row[s + 2];
    }
    for (std::uint64_t v = 2; v < row.size(); ++v)
        row[v] += row[v - 1];
    csr.col.resize(el.edges.size());
    for (const auto &[s, d] : el.edges)
        csr.col[row[s + 1]++] = d;
    row.pop_back();
    return csr;
}

CsrGraph::CsrGraph(Runtime &rt, const HostCsr &csr) : csr(csr)
{
    // 8-byte entries: the layout the kernels' pointer arithmetic
    // assumes, so col is widened on the way in.
    const std::uint64_t nv = numVertices(), ne = numEdges();
    row_addr = rt.allocArray<std::uint64_t>(nv + 1);
    col_addr = rt.allocArray<std::uint64_t>(ne ? ne : 1);
    VirtualMemory &vm = rt.system().memory();
    vm.writeBytes(row_addr, csr.row.data(), 8 * (nv + 1));
    vm.writeArray<std::uint64_t>(col_addr, ne, [&](std::uint64_t e) {
        return std::uint64_t{csr.col[e]};
    });
}

const std::vector<NamedGraphSpec> &
figureGraphs()
{
    // SNAP/LAW dataset sizes scaled by 1/16 in vertex count — the
    // same factor as the caches in SystemConfig::scaled() — so each
    // stand-in keeps the original's vertex-state : LLC ratio
    // (p2p-Gnutella31 deep inside the cache … soc-LiveJournal1 at
    // ~2.3x the LLC, matching the paper's 38 MB vs 16 MB).  Edge
    // counts of the two densest graphs are capped to bound bench
    // runtime; the locality regime is set by the vertex arrays.
    // Ascending vertex count, the paper's Fig. 2/8 x-axis order.
    static const std::vector<NamedGraphSpec> specs = {
        {"p2p-Gnutella31", 3908, 9240},
        {"soc-Slashdot0811", 4848, 56500},
        {"web-Stanford", 17594, 143960},
        {"amazon-2008", 45930, 325860},
        {"com-Youtube", 70963, 187400},
        {"frwiki-2013", 82300, 1000000},
        {"wiki-Talk", 148732, 312700},
        {"cit-Patents", 236172, 1031240},
        {"soc-LiveJournal1", 302656, 2400000},
    };
    return specs;
}

} // namespace pei
