/**
 * @file
 * Shared in-memory state the serving layer's request kernels operate
 * on: one bucket-chained hash table (HashProbe requests), one R-MAT
 * graph with a rank array (PageRankFragment requests), and one point
 * set plus precomputed query vectors (KnnQuery requests).
 *
 * The host-side images (table buckets, graph CSR, point/query
 * floats) are memoized process-wide through the input cache, so a
 * saturation sweep building dozens of Systems generates each input
 * once; only the copy into each System's simulated memory is
 * per-run.  Host copies double as the reference for post-run
 * validation.
 */

#ifndef PEISIM_SERVE_STATE_HH
#define PEISIM_SERVE_STATE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "workloads/graph.hh"
#include "workloads/hash_table.hh"

namespace pei
{

struct ServeStateConfig
{
    // Hash table: table_rows build keys; probes sample indices over
    // [0, probe_universe) — indices < table_rows are present keys
    // (even values), the rest are absent (odd values), so expected
    // match counts are known by construction and the Zipf-hot low
    // indices give the locality monitor something to find.
    std::uint64_t table_rows = 8192;
    std::uint64_t probe_universe = 16384;
    unsigned probes_per_request = 8;

    // Graph for PageRank fragments.
    std::uint64_t vertices = 4096;
    std::uint64_t edges = 32768;

    // kNN: `points` database points and `queries` query vectors of
    // knn_dims floats (one EuclidDist chunk); a request scans a
    // window of `knn_window` consecutive points.
    std::uint64_t points = 2048;
    std::uint64_t queries = 256;
    std::uint64_t knn_window = 32;

    std::uint64_t seed = 7;

    static constexpr unsigned knn_dims = 16;
};

class ServeState
{
  public:
    explicit ServeState(const ServeStateConfig &cfg) : cfg_(cfg) {}

    /** Build (or reuse) host images and copy them into @p rt. */
    void setup(Runtime &rt);

    const ServeStateConfig &config() const { return cfg_; }

    // ---- hash table ----
    Addr tableAddr() const { return table_addr_; }
    std::uint64_t numBuckets() const;

    /** The probe key for universe index @p idx. */
    static std::uint64_t
    probeKey(std::uint64_t idx)
    {
        return idx * 2 + 2; // present keys; absent variant is odd
    }

    /** Universe index -> key, present (even) or absent (odd). */
    std::uint64_t
    universeKey(std::uint64_t idx) const
    {
        return idx < cfg_.table_rows ? probeKey(idx) : idx * 2 + 1;
    }

    bool keyPresent(std::uint64_t idx) const
    {
        return idx < cfg_.table_rows;
    }

    // ---- graph / rank array ----
    const CsrGraph &graph() const { return *graph_; }
    Addr rankAddr(std::uint64_t v) const { return rank_addr_ + 8 * v; }

    // ---- kNN ----
    Addr pointAddr(std::uint64_t p) const
    {
        return points_addr_ + p * ServeStateConfig::knn_dims * 4;
    }

    const float *queryVec(std::uint64_t q) const;
    const float *pointVec(std::uint64_t p) const;

    std::uint64_t
    windowStart(std::uint64_t q) const
    {
        const std::uint64_t span = cfg_.points - cfg_.knn_window;
        return span ? (q * 131) % span : 0;
    }

    /** Host-side reference min squared distance for query @p q. */
    float refKnnMin(std::uint64_t q) const;

  private:
    struct Image; ///< memoized host-side inputs

    ServeStateConfig cfg_;
    const Image *image_ = nullptr;
    std::unique_ptr<CsrGraph> graph_;
    Addr table_addr_ = invalid_addr;
    Addr rank_addr_ = invalid_addr;
    Addr points_addr_ = invalid_addr;
};

} // namespace pei

#endif // PEISIM_SERVE_STATE_HH
