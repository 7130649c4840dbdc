/**
 * @file
 * Workload framework: the ten data-intensive applications of §5,
 * each with a simulated kernel (coroutines issuing loads/stores/PEIs)
 * and a host-side reference implementation used for validation.
 *
 * Input sizes follow Table 3, scaled to SystemConfig::scaled()'s
 * 1 MB L3 with the same working-set/cache ratios: "small" fits in
 * the LLC, "medium" is a small multiple of it, "large" far exceeds
 * it — the regimes that drive every figure in §7.
 */

#ifndef PEISIM_WORKLOADS_WORKLOAD_HH
#define PEISIM_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.hh"

namespace pei
{

/** Table 3 input-set sizes. */
enum class InputSize
{
    Small,
    Medium,
    Large,
};

/** The ten workloads of §5. */
enum class WorkloadKind
{
    ATF, ///< Average Teenage Follower
    BFS, ///< Breadth-First Search
    PR,  ///< PageRank
    SP,  ///< Single-Source Shortest Path
    WCC, ///< Weakly Connected Components
    HJ,  ///< Hash Join
    HG,  ///< Histogram
    RP,  ///< Radix Partitioning
    SC,  ///< Streamcluster
    SVM, ///< SVM Recursive Feature Elimination
};

const char *kindName(WorkloadKind kind);
const char *sizeName(InputSize size);
const std::vector<WorkloadKind> &allWorkloadKinds();

/**
 * One benchmark application.  Usage:
 *   auto w = makeWorkload(kind, size);
 *   w->setup(rt);                   // allocate + initialize inputs
 *   w->spawn(rt, threads, base);    // spawn kernel coroutines
 *   rt.run();
 *   std::string msg;
 *   bool ok = w->validate(rt.system(), msg);
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Allocate and initialize all inputs in simulated memory. */
    virtual void setup(Runtime &rt) = 0;

    /** Spawn kernel coroutines on cores [base, base + threads). */
    virtual void spawn(Runtime &rt, unsigned threads,
                       unsigned base_core = 0) = 0;

    /**
     * Check the simulated output against the reference
     * implementation.  @p msg receives a diagnostic on mismatch.
     */
    virtual bool validate(System &sys, std::string &msg) = 0;

    /** PEIs this workload issued (for per-bench reporting). */
    virtual std::uint64_t peiCount() const { return 0; }
};

/** Instantiate workload @p kind with Table 3 input size @p size. */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind, InputSize size,
                                       std::uint64_t seed = 1);

/**
 * PageRank parameterized by explicit graph size — used by the
 * Fig. 2 / Fig. 8 nine-graph sweeps.
 */
std::unique_ptr<Workload> makePageRank(std::uint64_t vertices,
                                       std::uint64_t edges,
                                       std::uint64_t seed = 1,
                                       unsigned iterations = 2);

} // namespace pei

#endif // PEISIM_WORKLOADS_WORKLOAD_HH
