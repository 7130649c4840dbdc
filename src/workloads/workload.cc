#include "workload.hh"

#include "common/logging.hh"
#include "workloads/analytics.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/ml.hh"

namespace pei
{

const char *
kindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::ATF: return "ATF";
      case WorkloadKind::BFS: return "BFS";
      case WorkloadKind::PR: return "PR";
      case WorkloadKind::SP: return "SP";
      case WorkloadKind::WCC: return "WCC";
      case WorkloadKind::HJ: return "HJ";
      case WorkloadKind::HG: return "HG";
      case WorkloadKind::RP: return "RP";
      case WorkloadKind::SC: return "SC";
      case WorkloadKind::SVM: return "SVM";
    }
    return "?";
}

const char *
sizeName(InputSize size)
{
    switch (size) {
      case InputSize::Small: return "small";
      case InputSize::Medium: return "medium";
      case InputSize::Large: return "large";
    }
    return "?";
}

const std::vector<WorkloadKind> &
allWorkloadKinds()
{
    static const std::vector<WorkloadKind> kinds = {
        WorkloadKind::ATF, WorkloadKind::BFS, WorkloadKind::PR,
        WorkloadKind::SP,  WorkloadKind::WCC, WorkloadKind::HJ,
        WorkloadKind::HG,  WorkloadKind::RP,  WorkloadKind::SC,
        WorkloadKind::SVM,
    };
    return kinds;
}

namespace
{

/**
 * Table 3 input sets, scaled to the 1 MB L3 of
 * SystemConfig::scaled() with the paper's working-set/cache ratios:
 * small fits comfortably in the LLC, medium is a small multiple of
 * it, large far exceeds it.
 */
struct GraphSpec
{
    std::uint64_t v, e;
};

GraphSpec
graphSpec(InputSize size)
{
    // Vertex-state footprint (the PEI-targeted arrays, ~8-32 B per
    // vertex) relative to the scaled 1 MB L3 mirrors the paper's
    // ratios against its 16 MB L3: small « L3, medium ≈ L3 (partially
    // resident), large ≈ several × L3.
    switch (size) {
      case InputSize::Small: return {8192, 65536};      // ~0.8 MB total
      case InputSize::Medium: return {131072, 655360};  // ~9 MB total
      case InputSize::Large: return {524288, 2621440};  // ~36 MB total
    }
    return {8192, 65536};
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, InputSize size, std::uint64_t seed)
{
    const GraphSpec g = graphSpec(size);
    switch (kind) {
      case WorkloadKind::ATF:
        return std::make_unique<AtfWorkload>(g.v, g.e, seed);
      case WorkloadKind::BFS:
        return std::make_unique<BfsWorkload>(g.v, g.e, seed);
      case WorkloadKind::PR:
        return std::make_unique<PageRankWorkload>(g.v, g.e, seed, 2);
      case WorkloadKind::SP:
        return std::make_unique<SsspWorkload>(g.v, g.e, seed);
      case WorkloadKind::WCC:
        // Symmetrization doubles the edges; halve the budget.
        return std::make_unique<WccWorkload>(g.v, g.e / 2, seed);
      case WorkloadKind::HJ:
        // Hash table ≈ 16 B/row of buckets; probes fixed at 128 K.
        switch (size) {
          case InputSize::Small: // ~0.1 MB table
            return std::make_unique<HashJoinWorkload>(4096, 131072, seed);
          case InputSize::Medium: // ~1 MB table
            return std::make_unique<HashJoinWorkload>(49152, 131072, seed);
          case InputSize::Large: // ~6 MB table
            return std::make_unique<HashJoinWorkload>(262144, 131072,
                                                      seed);
        }
        break;
      case WorkloadKind::HG:
        switch (size) {
          case InputSize::Small: // 0.5 MB of ints
            return std::make_unique<HistogramWorkload>(1u << 17, seed);
          case InputSize::Medium: // 4 MB
            return std::make_unique<HistogramWorkload>(1u << 20, seed);
          case InputSize::Large: // 16 MB
            return std::make_unique<HistogramWorkload>(1u << 22, seed);
        }
        break;
      case WorkloadKind::RP:
        switch (size) {
          case InputSize::Small: // 0.25 MB in + out
            return std::make_unique<RadixPartitionWorkload>(1u << 16,
                                                            seed, 4);
          case InputSize::Medium: // 2 MB in + out
            return std::make_unique<RadixPartitionWorkload>(1u << 19,
                                                            seed, 3);
          case InputSize::Large: // 8 MB in + out
            return std::make_unique<RadixPartitionWorkload>(1u << 21,
                                                            seed, 2);
        }
        break;
      case WorkloadKind::SC:
        switch (size) {
          case InputSize::Small: // 1K 32-dim points: 128 KB
            return std::make_unique<StreamclusterWorkload>(1024, 32, 8,
                                                           seed);
          case InputSize::Medium: // 4K 128-dim points: 2 MB
            return std::make_unique<StreamclusterWorkload>(4096, 128, 8,
                                                           seed);
          case InputSize::Large: // 16K 128-dim points: 8 MB
            return std::make_unique<StreamclusterWorkload>(16384, 128, 8,
                                                           seed);
        }
        break;
      case WorkloadKind::SVM:
        switch (size) {
          case InputSize::Small: // 24 x 2048 doubles: 0.4 MB
            return std::make_unique<SvmWorkload>(24, 2048, seed);
          case InputSize::Medium: // 64 x 2048: 1 MB
            return std::make_unique<SvmWorkload>(64, 2048, seed);
          case InputSize::Large: // 256 x 2048: 4 MB
            return std::make_unique<SvmWorkload>(256, 2048, seed);
        }
        break;
    }
    panic("unhandled workload kind/size");
}

std::unique_ptr<Workload>
makePageRank(std::uint64_t vertices, std::uint64_t edges,
             std::uint64_t seed, unsigned iterations)
{
    return std::make_unique<PageRankWorkload>(vertices, edges, seed,
                                              iterations);
}

} // namespace pei
