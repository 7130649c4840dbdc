#include "state.hh"

#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/runtime.hh"
#include "workloads/input_cache.hh"

namespace pei
{

/** Memoized host-side inputs shared by every System of a sweep. */
struct ServeState::Image
{
    HashTableImage table;
    HostCsr graph;
    std::vector<float> points;  ///< points * knn_dims floats
    std::vector<float> queries; ///< queries * knn_dims floats
};

void
ServeState::setup(Runtime &rt)
{
    fatal_if(cfg_.probe_universe < cfg_.table_rows,
             "probe universe smaller than the table");
    fatal_if(cfg_.points < cfg_.knn_window,
             "kNN window larger than the point set");
    fatal_if(cfg_.queries == 0 || cfg_.vertices == 0,
             "empty serve state domain");

    const std::string key =
        "serve/table=" + std::to_string(cfg_.table_rows) +
        "/universe=" + std::to_string(cfg_.probe_universe) +
        "/v=" + std::to_string(cfg_.vertices) +
        "/e=" + std::to_string(cfg_.edges) +
        "/pts=" + std::to_string(cfg_.points) +
        "/q=" + std::to_string(cfg_.queries) +
        "/seed=" + std::to_string(cfg_.seed);
    const ServeStateConfig cfg = cfg_;
    // stdfunction-allowed: one-time host-side input build, not a
    // scheduling path (cachedInput's builder parameter).
    image_ = &cachedInput<Image>(key, [cfg]() -> Image {
        Image img;
        std::vector<std::uint64_t> build_keys(cfg.table_rows);
        for (std::uint64_t i = 0; i < cfg.table_rows; ++i)
            build_keys[i] = probeKey(i);
        img.table = buildHashTable(build_keys);
        img.graph =
            buildCsr(genRmat(cfg.vertices, cfg.edges, cfg.seed ^ 0x6A));
        Rng rng(cfg.seed ^ 0x6B);
        img.points.resize(cfg.points * ServeStateConfig::knn_dims);
        for (auto &f : img.points)
            f = static_cast<float>(rng.uniform());
        img.queries.resize(cfg.queries * ServeStateConfig::knn_dims);
        for (auto &f : img.queries)
            f = static_cast<float>(rng.uniform());
        return img;
    });

    table_addr_ = materializeHashTable(rt, image_->table);
    graph_ = std::make_unique<CsrGraph>(rt, image_->graph);
    // Fresh simulated memory is zeroed: every rank starts at 0.0.
    rank_addr_ = rt.allocArray<double>(cfg_.vertices);

    points_addr_ =
        rt.allocArray<float>(cfg_.points * ServeStateConfig::knn_dims);
    rt.system().memory().writeBytes(points_addr_, image_->points.data(),
                                    4 * image_->points.size());
}

std::uint64_t
ServeState::numBuckets() const
{
    return image_->table.num_buckets;
}

const float *
ServeState::queryVec(std::uint64_t q) const
{
    return &image_->queries[q * ServeStateConfig::knn_dims];
}

const float *
ServeState::pointVec(std::uint64_t p) const
{
    return &image_->points[p * ServeStateConfig::knn_dims];
}

float
ServeState::refKnnMin(std::uint64_t q) const
{
    const float *qv = queryVec(q);
    const std::uint64_t w0 = windowStart(q);
    float best = 0.0f;
    for (std::uint64_t p = w0; p < w0 + cfg_.knn_window; ++p) {
        const float *pv = pointVec(p);
        // Same accumulation order as the EuclidDist PEI.
        float sum = 0.0f;
        for (unsigned i = 0; i < ServeStateConfig::knn_dims; ++i) {
            const float d = pv[i] - qv[i];
            sum += d * d;
        }
        if (p == w0 || sum < best)
            best = sum;
    }
    return best;
}

} // namespace pei
