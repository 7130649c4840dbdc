#include "graph_workloads.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>

#include "common/logging.hh"
#include "workloads/input_cache.hh"

namespace pei
{

void
GraphWorkloadBase::setupGraph(Runtime &rt)
{
    // Building the input is the dominant host-side setup cost and is
    // identical for every exec-mode run of one (v, e, seed) input;
    // memoize its CSR and share it read-only across runs.  The R-MAT
    // edge list lives only until the CSR exists.
    const std::string key = "rmat/v=" + std::to_string(vertices) +
                            "/e=" + std::to_string(edges) +
                            "/seed=" + std::to_string(seed) +
                            "/sym=" + (undirected ? "1" : "0");
    const HostCsr &csr = cachedInput<HostCsr>(key, [this] {
        EdgeList el = genRmat(vertices, edges, seed);
        if (undirected)
            el = symmetrize(el);
        return buildCsr(el);
    });
    graph = std::make_unique<CsrGraph>(rt, csr);
}

namespace
{

/** Vertex with the highest out-degree (a deterministic hub source). */
std::uint64_t
hubVertex(const CsrGraph &g)
{
    std::uint64_t best = 0, best_deg = 0;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
        const std::uint64_t d = g.outDegree(v);
        if (d > best_deg) {
            best_deg = d;
            best = v;
        }
    }
    return best;
}

} // namespace

// ---------------------------------------------------------------- ATF

void
AtfWorkload::setup(Runtime &rt)
{
    setupGraph(rt);
    const std::uint64_t nv = graph->numVertices();
    teen_addr = rt.allocArray<std::uint8_t>(nv);
    followers_addr = rt.allocArray<std::uint64_t>(nv);

    Rng rng(seed ^ 0xA7F);
    teen_ref.resize(nv);
    for (std::uint8_t &teen : teen_ref)
        teen = rng.chance(0.25) ? 1 : 0;
    rt.system().memory().writeBytes(teen_addr, teen_ref.data(), nv);
}

Task
AtfWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const auto [vb, ve] = rangeOf(tid, n);
    Ctx::StreamCursor teen_cur, row_cur, col_cur;
    for (std::uint64_t v = vb; v < ve; ++v) {
        co_await ctx.streamLoad(teen_addr + v, teen_cur);
        co_await ctx.streamLoad(graph->rowPtrAddr(v), row_cur);
        if (!teen_ref[v])
            continue;
        const std::uint64_t ebeg = graph->rowPtr()[v];
        const std::uint64_t eend = graph->rowPtr()[v + 1];
        for (std::uint64_t e = ebeg; e < eend; ++e) {
            co_await ctx.streamLoad(graph->colIdxAddr(e), col_cur);
            const std::uint64_t w = graph->colIdx()[e];
            co_await ctx.inc64(followers_addr + 8 * w);
            ++peis_issued;
        }
    }
    co_await ctx.pfence();
    co_await ctx.drain();
}

void
AtfWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
AtfWorkload::validate(System &sys, std::string &msg)
{
    const std::uint64_t nv = graph->numVertices();
    std::vector<std::uint64_t> ref(nv, 0);
    for (std::uint64_t v = 0; v < nv; ++v) {
        if (!teen_ref[v])
            continue;
        for (std::uint64_t e = graph->rowPtr()[v];
             e < graph->rowPtr()[v + 1]; ++e)
            ++ref[graph->colIdx()[e]];
    }
    for (std::uint64_t v = 0; v < nv; ++v) {
        const auto got =
            sys.memory().read<std::uint64_t>(followers_addr + 8 * v);
        if (got != ref[v]) {
            msg = "ATF: follower count mismatch at vertex " +
                  std::to_string(v) + ": got " + std::to_string(got) +
                  ", expected " + std::to_string(ref[v]);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------- BFS

void
BfsWorkload::setup(Runtime &rt)
{
    setupGraph(rt);
    const std::uint64_t nv = graph->numVertices();
    level_addr = rt.allocArray<std::uint64_t>(nv);
    source = hubVertex(*graph);

    rt.system().memory().writeArray<std::uint64_t>(
        level_addr, nv,
        [this](std::uint64_t v) { return v == source ? 0 : unreachable; });
}

Task
BfsWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const auto [vb, ve] = rangeOf(tid, n);
    for (std::uint64_t cur = 0;; ++cur) {
        Ctx::StreamCursor lvl_cur, row_cur, col_cur;
        for (std::uint64_t v = vb; v < ve; ++v) {
            co_await ctx.streamLoad(level_addr + 8 * v, lvl_cur);
            if (ctx.fread<std::uint64_t>(level_addr + 8 * v) != cur)
                continue;
            co_await ctx.streamLoad(graph->rowPtrAddr(v), row_cur);
            for (std::uint64_t e = graph->rowPtr()[v];
                 e < graph->rowPtr()[v + 1]; ++e) {
                co_await ctx.streamLoad(graph->colIdxAddr(e), col_cur);
                const std::uint64_t w = graph->colIdx()[e];
                co_await ctx.min64(level_addr + 8 * w, cur + 1);
                ++peis_issued;
            }
        }
        co_await ctx.pfence();
        co_await barrier->arrive();
        if (tid == 0) {
            frontier_nonempty = false;
            for (std::uint64_t v = 0; v < graph->numVertices(); ++v) {
                if (ctx.fread<std::uint64_t>(level_addr + 8 * v) ==
                    cur + 1) {
                    frontier_nonempty = true;
                    break;
                }
            }
        }
        co_await barrier->arrive();
        if (!frontier_nonempty)
            break;
    }
    co_await ctx.drain();
}

void
BfsWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
BfsWorkload::validate(System &sys, std::string &msg)
{
    const std::uint64_t nv = graph->numVertices();
    std::vector<std::uint64_t> ref(nv, unreachable);
    std::queue<std::uint64_t> q;
    ref[source] = 0;
    q.push(source);
    while (!q.empty()) {
        const std::uint64_t v = q.front();
        q.pop();
        for (std::uint64_t e = graph->rowPtr()[v];
             e < graph->rowPtr()[v + 1]; ++e) {
            const std::uint64_t w = graph->colIdx()[e];
            if (ref[w] == unreachable) {
                ref[w] = ref[v] + 1;
                q.push(w);
            }
        }
    }
    for (std::uint64_t v = 0; v < nv; ++v) {
        const auto got =
            sys.memory().read<std::uint64_t>(level_addr + 8 * v);
        if (got != ref[v]) {
            msg = "BFS: level mismatch at vertex " + std::to_string(v) +
                  ": got " + std::to_string(got) + ", expected " +
                  std::to_string(ref[v]);
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------------------- PR

void
PageRankWorkload::setup(Runtime &rt)
{
    setupGraph(rt);
    const std::uint64_t nv = graph->numVertices();
    pr_addr = rt.allocArray<double>(nv);
    next_pr_addr = rt.allocArray<double>(nv);
    degree_addr = rt.allocArray<std::uint64_t>(nv);
    diff_addr = rt.allocArray<double>(1);

    VirtualMemory &vm = rt.system().memory();
    const double n = static_cast<double>(nv);
    vm.writeArray<double>(pr_addr, nv,
                          [n](std::uint64_t) { return 1.0 / n; });
    vm.writeArray<double>(next_pr_addr, nv,
                          [n](std::uint64_t) { return 0.15 / n; });
    vm.writeArray<std::uint64_t>(degree_addr, nv, [this](std::uint64_t v) {
        return graph->outDegree(v);
    });
}

Task
PageRankWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const auto [vb, ve] = rangeOf(tid, n);
    const double nvd = static_cast<double>(graph->numVertices());
    for (unsigned iter = 0; iter < iterations; ++iter) {
        // Fig. 1 lines 7-12: scatter deltas through out-edges.
        Ctx::StreamCursor pr_cur, deg_cur, row_cur, col_cur;
        for (std::uint64_t v = vb; v < ve; ++v) {
            co_await ctx.streamLoad(pr_addr + 8 * v, pr_cur);
            co_await ctx.streamLoad(degree_addr + 8 * v, deg_cur);
            co_await ctx.streamLoad(graph->rowPtrAddr(v), row_cur);
            const std::uint64_t deg = graph->outDegree(v);
            if (deg == 0)
                continue;
            const double delta =
                0.85 * ctx.fread<double>(pr_addr + 8 * v) /
                static_cast<double>(deg);
            for (std::uint64_t e = graph->rowPtr()[v];
                 e < graph->rowPtr()[v + 1]; ++e) {
                co_await ctx.streamLoad(graph->colIdxAddr(e), col_cur);
                const std::uint64_t w = graph->colIdx()[e];
                co_await ctx.fadd(next_pr_addr + 8 * w, delta);
                ++peis_issued;
            }
        }
        // Fig. 1: pfence after the scatter loop — the next loop reads
        // next_pagerank with normal instructions.
        co_await ctx.pfence();
        co_await barrier->arrive();

        // Fig. 1 lines 13-18: fold diff, swap ranks.  The diff
        // reduction accumulates thread-locally with one atomic fadd
        // per thread per iteration (the thread-local reduction any
        // parallel-for framework, incl. Green-Marl, generates —
        // a per-vertex atomic to one shared word would serialize
        // every configuration on a single cache block).
        double local_diff = 0.0;
        Ctx::StreamCursor next_cur, pr2_cur;
        for (std::uint64_t v = vb; v < ve; ++v) {
            co_await ctx.streamLoad(next_pr_addr + 8 * v, next_cur);
            co_await ctx.streamLoad(pr_addr + 8 * v, pr2_cur);
            const double next = ctx.fread<double>(next_pr_addr + 8 * v);
            const double old = ctx.fread<double>(pr_addr + 8 * v);
            local_diff += std::fabs(next - old);
            ctx.fwrite<double>(pr_addr + 8 * v, next);
            co_await ctx.storeAsync(pr_addr + 8 * v);
            ctx.fwrite<double>(next_pr_addr + 8 * v, 0.15 / nvd);
            co_await ctx.storeAsync(next_pr_addr + 8 * v);
        }
        co_await ctx.fadd(diff_addr, local_diff);
        ++peis_issued;
        co_await ctx.pfence();
        co_await ctx.drain();
        co_await barrier->arrive();
    }
}

void
PageRankWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
PageRankWorkload::validate(System &sys, std::string &msg)
{
    const std::uint64_t nv = graph->numVertices();
    const double n = static_cast<double>(nv);
    std::vector<double> pr(nv, 1.0 / n), next(nv, 0.15 / n);
    for (unsigned iter = 0; iter < iterations; ++iter) {
        for (std::uint64_t v = 0; v < nv; ++v) {
            const std::uint64_t deg = graph->outDegree(v);
            if (deg == 0)
                continue;
            const double delta = 0.85 * pr[v] / static_cast<double>(deg);
            for (std::uint64_t e = graph->rowPtr()[v];
                 e < graph->rowPtr()[v + 1]; ++e)
                next[graph->colIdx()[e]] += delta;
        }
        for (std::uint64_t v = 0; v < nv; ++v) {
            pr[v] = next[v];
            next[v] = 0.15 / n;
        }
    }
    for (std::uint64_t v = 0; v < nv; ++v) {
        const auto got = sys.memory().read<double>(pr_addr + 8 * v);
        // Parallel atomic adds reorder FP sums; tolerate rounding.
        if (std::fabs(got - pr[v]) >
            1e-9 + 1e-6 * std::fabs(pr[v])) {
            msg = "PR: rank mismatch at vertex " + std::to_string(v) +
                  ": got " + std::to_string(got) + ", expected " +
                  std::to_string(pr[v]);
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------------------- SP

std::uint64_t
SsspWorkload::weightOf(std::uint64_t e) const
{
    // Deterministic pseudo-random weight in [1, 16].
    std::uint64_t x = e * 0x9E3779B97F4A7C15ULL + seed;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 32;
    return 1 + (x & 0xF);
}

void
SsspWorkload::setup(Runtime &rt)
{
    setupGraph(rt);
    const std::uint64_t nv = graph->numVertices();
    const std::uint64_t ne = graph->numEdges();
    dist_addr = rt.allocArray<std::uint64_t>(nv);
    weight_addr = rt.allocArray<std::uint64_t>(ne ? ne : 1);
    source = hubVertex(*graph);

    VirtualMemory &vm = rt.system().memory();
    vm.writeArray<std::uint64_t>(dist_addr, nv, [this](std::uint64_t v) {
        return v == source ? 0 : inf_dist;
    });
    vm.writeArray<std::uint64_t>(
        weight_addr, ne, [this](std::uint64_t e) { return weightOf(e); });

    prev_dist.assign(nv, inf_dist);
    prev_dist[source] = 0;
    active.assign(nv, 0);
    active[source] = 1;
}

Task
SsspWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const auto [vb, ve] = rangeOf(tid, n);
    for (unsigned round = 0; round < max_rounds; ++round) {
        Ctx::StreamCursor dist_cur, row_cur, col_cur, w_cur;
        for (std::uint64_t v = vb; v < ve; ++v) {
            if (!active[v])
                continue;
            co_await ctx.streamLoad(dist_addr + 8 * v, dist_cur);
            const auto dv = ctx.fread<std::uint64_t>(dist_addr + 8 * v);
            co_await ctx.streamLoad(graph->rowPtrAddr(v), row_cur);
            for (std::uint64_t e = graph->rowPtr()[v];
                 e < graph->rowPtr()[v + 1]; ++e) {
                co_await ctx.streamLoad(graph->colIdxAddr(e), col_cur);
                co_await ctx.streamLoad(weight_addr + 8 * e, w_cur);
                const std::uint64_t w = graph->colIdx()[e];
                const std::uint64_t wgt =
                    ctx.fread<std::uint64_t>(weight_addr + 8 * e);
                co_await ctx.min64(dist_addr + 8 * w, dv + wgt);
                ++peis_issued;
            }
        }
        co_await ctx.pfence();
        co_await barrier->arrive();
        if (tid == 0) {
            changed = false;
            for (std::uint64_t v = 0; v < graph->numVertices(); ++v) {
                const auto d =
                    ctx.fread<std::uint64_t>(dist_addr + 8 * v);
                active[v] = (d != prev_dist[v]);
                changed |= active[v];
                prev_dist[v] = d;
            }
        }
        co_await barrier->arrive();
        if (!changed)
            break;
    }
    co_await ctx.drain();
}

void
SsspWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
SsspWorkload::validate(System &sys, std::string &msg)
{
    // Dijkstra reference with the same weights.
    const std::uint64_t nv = graph->numVertices();
    std::vector<std::uint64_t> ref(nv, inf_dist);
    using Item = std::pair<std::uint64_t, std::uint64_t>; // (dist, v)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    ref[source] = 0;
    pq.emplace(0, source);
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > ref[v])
            continue;
        for (std::uint64_t e = graph->rowPtr()[v];
             e < graph->rowPtr()[v + 1]; ++e) {
            const std::uint64_t w = graph->colIdx()[e];
            const std::uint64_t nd = d + weightOf(e);
            if (nd < ref[w]) {
                ref[w] = nd;
                pq.emplace(nd, w);
            }
        }
    }
    for (std::uint64_t v = 0; v < nv; ++v) {
        const auto got =
            sys.memory().read<std::uint64_t>(dist_addr + 8 * v);
        if (got != ref[v]) {
            msg = "SP: distance mismatch at vertex " + std::to_string(v) +
                  ": got " + std::to_string(got) + ", expected " +
                  std::to_string(ref[v]);
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------- WCC

void
WccWorkload::setup(Runtime &rt)
{
    setupGraph(rt); // symmetrized (undirected flag)
    const std::uint64_t nv = graph->numVertices();
    label_addr = rt.allocArray<std::uint64_t>(nv);
    rt.system().memory().writeArray<std::uint64_t>(
        label_addr, nv, [](std::uint64_t v) { return v; });
    prev_label.resize(nv);
    for (std::uint64_t v = 0; v < nv; ++v)
        prev_label[v] = v;
    // Every vertex is active in round 0.
    active_all = true;
}

Task
WccWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const auto [vb, ve] = rangeOf(tid, n);
    for (unsigned round = 0; round < max_rounds; ++round) {
        Ctx::StreamCursor lbl_cur, row_cur, col_cur;
        for (std::uint64_t v = vb; v < ve; ++v) {
            if (!active_all && !active[v])
                continue;
            co_await ctx.streamLoad(label_addr + 8 * v, lbl_cur);
            const auto lv = ctx.fread<std::uint64_t>(label_addr + 8 * v);
            co_await ctx.streamLoad(graph->rowPtrAddr(v), row_cur);
            for (std::uint64_t e = graph->rowPtr()[v];
                 e < graph->rowPtr()[v + 1]; ++e) {
                co_await ctx.streamLoad(graph->colIdxAddr(e), col_cur);
                const std::uint64_t w = graph->colIdx()[e];
                co_await ctx.min64(label_addr + 8 * w, lv);
                ++peis_issued;
            }
        }
        co_await ctx.pfence();
        co_await barrier->arrive();
        if (tid == 0) {
            changed = false;
            active.assign(graph->numVertices(), 0);
            for (std::uint64_t v = 0; v < graph->numVertices(); ++v) {
                const auto l =
                    ctx.fread<std::uint64_t>(label_addr + 8 * v);
                if (l != prev_label[v]) {
                    active[v] = 1;
                    changed = true;
                    prev_label[v] = l;
                }
            }
            active_all = false;
        }
        co_await barrier->arrive();
        if (!changed)
            break;
    }
    co_await ctx.drain();
}

void
WccWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
WccWorkload::validate(System &sys, std::string &msg)
{
    // Union-find reference over the CSR's edges: component label =
    // min vertex id, whatever order the edges are visited in.
    const std::uint64_t nv = graph->numVertices();
    std::vector<std::uint64_t> parent(nv);
    for (std::uint64_t v = 0; v < nv; ++v)
        parent[v] = v;
    auto find = [&](std::uint64_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    for (std::uint64_t s = 0; s < nv; ++s) {
        for (std::uint64_t e = graph->rowPtr()[s];
             e < graph->rowPtr()[s + 1]; ++e) {
            const auto rs = find(s), rd = find(graph->colIdx()[e]);
            if (rs != rd)
                parent[std::max(rs, rd)] = std::min(rs, rd);
        }
    }
    std::vector<std::uint64_t> ref(nv);
    for (std::uint64_t v = 0; v < nv; ++v)
        ref[v] = find(v);
    // Normalize: label of component = min member id.
    std::vector<std::uint64_t> min_id(nv, ~0ULL);
    for (std::uint64_t v = 0; v < nv; ++v)
        min_id[ref[v]] = std::min(min_id[ref[v]], v);
    for (std::uint64_t v = 0; v < nv; ++v) {
        const auto got =
            sys.memory().read<std::uint64_t>(label_addr + 8 * v);
        if (got != min_id[ref[v]]) {
            msg = "WCC: label mismatch at vertex " + std::to_string(v) +
                  ": got " + std::to_string(got) + ", expected " +
                  std::to_string(min_id[ref[v]]);
            return false;
        }
    }
    return true;
}

} // namespace pei
