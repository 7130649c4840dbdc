/**
 * @file
 * The five large-scale graph-processing workloads of §5.1.
 *
 * Every kernel is written the way the paper describes the software:
 * vertices are range-partitioned across threads, vertex/edge arrays
 * are streamed (one timing load per cache block), and the inner
 * random-access update becomes one PEI per edge.  Phases are
 * separated by pfence + barrier exactly where the paper requires
 * (normal reads of PEI-written data).
 */

#ifndef PEISIM_WORKLOADS_GRAPH_WORKLOADS_HH
#define PEISIM_WORKLOADS_GRAPH_WORKLOADS_HH

#include <memory>
#include <vector>

#include "runtime/sync.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace pei
{

/** Shared machinery for the graph workloads. */
class GraphWorkloadBase : public Workload
{
  public:
    GraphWorkloadBase(std::uint64_t vertices, std::uint64_t edges,
                      std::uint64_t seed, bool undirected)
        : vertices(vertices), edges(edges), seed(seed),
          undirected(undirected)
    {}

    std::uint64_t peiCount() const override { return peis_issued; }

    /** The input graph (valid after setup()). */
    const CsrGraph &csrGraph() const { return *graph; }

  protected:
    /** Build (or reuse) the R-MAT input's CSR and materialize it. */
    void setupGraph(Runtime &rt);

    /** [begin, end) vertex range of thread @p tid of @p n. */
    std::pair<std::uint64_t, std::uint64_t>
    rangeOf(unsigned tid, unsigned n) const
    {
        const std::uint64_t nv = graph->numVertices();
        return {nv * tid / n, nv * (tid + 1) / n};
    }

    std::uint64_t vertices;
    std::uint64_t edges;
    std::uint64_t seed;
    bool undirected;

    std::unique_ptr<CsrGraph> graph; ///< view of the cached CSR
    std::unique_ptr<Barrier> barrier;
    std::uint64_t peis_issued = 0;
};

/** Average Teenage Follower: one Inc64 PEI per teen out-edge. */
class AtfWorkload : public GraphWorkloadBase
{
  public:
    AtfWorkload(std::uint64_t v, std::uint64_t e, std::uint64_t seed)
        : GraphWorkloadBase(v, e, seed, false)
    {}

    const char *name() const override { return "ATF"; }
    void setup(Runtime &rt) override;
    void spawn(Runtime &rt, unsigned threads, unsigned base) override;
    bool validate(System &sys, std::string &msg) override;

  private:
    Task kernel(Ctx &ctx, unsigned tid, unsigned n);

    Addr teen_addr = invalid_addr;      ///< u8 per vertex
    Addr followers_addr = invalid_addr; ///< u64 per vertex
    std::vector<std::uint8_t> teen_ref;
};

/** Level-synchronous BFS: one Min64 PEI per frontier edge. */
class BfsWorkload : public GraphWorkloadBase
{
  public:
    BfsWorkload(std::uint64_t v, std::uint64_t e, std::uint64_t seed)
        : GraphWorkloadBase(v, e, seed, false)
    {}

    const char *name() const override { return "BFS"; }
    void setup(Runtime &rt) override;
    void spawn(Runtime &rt, unsigned threads, unsigned base) override;
    bool validate(System &sys, std::string &msg) override;

    static constexpr std::uint64_t unreachable = ~0ULL;

  private:
    Task kernel(Ctx &ctx, unsigned tid, unsigned n);

    Addr level_addr = invalid_addr; ///< u64 per vertex
    std::uint64_t source = 0;
    bool frontier_nonempty = true;
};

/** PageRank (Fig. 1): one FaddDouble PEI per edge per iteration. */
class PageRankWorkload : public GraphWorkloadBase
{
  public:
    PageRankWorkload(std::uint64_t v, std::uint64_t e, std::uint64_t seed,
                     unsigned iterations)
        : GraphWorkloadBase(v, e, seed, false), iterations(iterations)
    {}

    const char *name() const override { return "PR"; }
    void setup(Runtime &rt) override;
    void spawn(Runtime &rt, unsigned threads, unsigned base) override;
    bool validate(System &sys, std::string &msg) override;

  private:
    Task kernel(Ctx &ctx, unsigned tid, unsigned n);

    unsigned iterations;
    Addr pr_addr = invalid_addr;      ///< double per vertex
    Addr next_pr_addr = invalid_addr; ///< double per vertex
    Addr degree_addr = invalid_addr;  ///< u64 per vertex
    Addr diff_addr = invalid_addr;    ///< one double
};

/** Bellman-Ford SSSP: one Min64 PEI per relaxed edge. */
class SsspWorkload : public GraphWorkloadBase
{
  public:
    SsspWorkload(std::uint64_t v, std::uint64_t e, std::uint64_t seed)
        : GraphWorkloadBase(v, e, seed, false)
    {}

    const char *name() const override { return "SP"; }
    void setup(Runtime &rt) override;
    void spawn(Runtime &rt, unsigned threads, unsigned base) override;
    bool validate(System &sys, std::string &msg) override;

    static constexpr std::uint64_t inf_dist = ~0ULL;
    static constexpr unsigned max_rounds = 64;

  private:
    Task kernel(Ctx &ctx, unsigned tid, unsigned n);
    std::uint64_t weightOf(std::uint64_t e) const;

    Addr dist_addr = invalid_addr;   ///< u64 per vertex
    Addr weight_addr = invalid_addr; ///< u64 per edge
    std::uint64_t source = 0;
    std::vector<std::uint64_t> prev_dist;
    std::vector<std::uint8_t> active;
    bool changed = true;
};

/** WCC by label propagation: one Min64 PEI per edge per round. */
class WccWorkload : public GraphWorkloadBase
{
  public:
    WccWorkload(std::uint64_t v, std::uint64_t e, std::uint64_t seed)
        : GraphWorkloadBase(v, e, seed, true)
    {}

    const char *name() const override { return "WCC"; }
    void setup(Runtime &rt) override;
    void spawn(Runtime &rt, unsigned threads, unsigned base) override;
    bool validate(System &sys, std::string &msg) override;

    static constexpr unsigned max_rounds = 64;

  private:
    Task kernel(Ctx &ctx, unsigned tid, unsigned n);

    Addr label_addr = invalid_addr; ///< u64 per vertex
    std::vector<std::uint64_t> prev_label;
    std::vector<std::uint8_t> active;
    bool active_all = true;
    bool changed = true;
};

} // namespace pei

#endif // PEISIM_WORKLOADS_GRAPH_WORKLOADS_HH
