/**
 * @file
 * Deterministic traffic planning for the serving layer.
 *
 * The whole arrival process — arrival times, tenants, request kinds,
 * kind parameters, and closed-loop think times — is sampled host-side
 * *before* the simulation starts, from the repo's deterministic Rng.
 * The resulting TrafficPlan is a pure function of (TrafficConfig,
 * tenant specs), so a run replays bit-identically for any `--jobs`
 * worker count.
 *
 * Generators:
 *  - OpenPoisson: exponential inter-arrivals at `offered_per_mtick`
 *    (arrivals per million ticks), rounded to >= 1 tick.
 *  - OpenBursty: a 2-state Markov-modulated Poisson process.  The
 *    process alternates exponential-dwell low/high phases whose rates
 *    are scaled so the long-run average stays `offered_per_mtick`
 *    (rate_hi = burst_ratio * rate_lo).  State flips are evaluated at
 *    arrival points, so dwell boundaries are approximated to the
 *    nearest arrival — an accepted simplification for a synthetic
 *    generator; the process remains exactly reproducible.
 *  - ClosedLoop: `clients` independent clients issue
 *    `requests_per_client` requests each, thinking an exponential
 *    `think_mean_ticks` between completion and the next request.
 *    Arrival *times* emerge from the simulation; everything else
 *    (think durations, tenants, kinds, parameters) is pre-sampled.
 *
 * Kind parameters are Zipf-distributed over per-kind domains (hot
 * keys / hub vertices / popular queries), with one independent
 * ZipfSampler stream per kind.
 */

#ifndef PEISIM_SERVE_TRAFFIC_HH
#define PEISIM_SERVE_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "serve/request.hh"

namespace pei
{

enum class TrafficMode : std::uint8_t
{
    OpenPoisson,
    OpenBursty,
    ClosedLoop,
};

inline const char *
trafficModeName(TrafficMode m)
{
    switch (m) {
      case TrafficMode::OpenPoisson: return "open_poisson";
      case TrafficMode::OpenBursty: return "open_bursty";
      case TrafficMode::ClosedLoop: return "closed_loop";
    }
    return "?";
}

/** Per-tenant traffic/queueing parameters. */
struct TenantTraffic
{
    double weight = 1.0;        ///< weighted-fair scheduler weight
    unsigned queue_cap = 64;    ///< bounded queue depth (shed above)
    double arrival_share = 1.0; ///< relative share of offered load
    /** Relative request-kind mix (HashProbe, PageRankFragment,
     *  KnnQuery); normalized internally. */
    double kind_mix[num_request_kinds] = {1.0, 1.0, 1.0};
};

struct TrafficConfig
{
    TrafficMode mode = TrafficMode::OpenPoisson;
    std::uint64_t requests = 1024;   ///< total (open-loop modes)
    double offered_per_mtick = 50.0; ///< arrivals per 1e6 ticks

    // ---- OpenBursty (MMPP-2) ----
    double burst_ratio = 8.0;       ///< high-state rate / low-state rate
    double burst_fraction = 0.2;    ///< long-run fraction of time high
    Ticks burst_dwell_hi = 50'000;  ///< mean high-state dwell, ticks

    // ---- ClosedLoop ----
    unsigned clients = 16;
    unsigned requests_per_client = 32;
    Ticks think_mean_ticks = 20'000;

    // ---- parameter sampling ----
    std::uint64_t seed = 1;
    double zipf_s = 0.8;
    /** Zipf domain per kind (probe universe, vertices, queries);
     *  filled by the Server from its state config. */
    std::uint64_t kind_domain[num_request_kinds] = {1, 1, 1};
};

/** One closed-loop client step: think, then issue a planned request. */
struct ClientStep
{
    Ticks think = 0;           ///< pre-sampled think time
    std::uint64_t request = 0; ///< index into TrafficPlan::requests
};

struct TrafficPlan
{
    /** Every request of the run; Request::id == index.  Open loop:
     *  sorted by strictly increasing arrival_tick. */
    std::vector<Request> requests;
    /** Closed loop only: each client's scripted steps. */
    std::vector<std::vector<ClientStep>> clients;
};

/** Plan the full arrival process (see file comment). */
TrafficPlan planTraffic(const TrafficConfig &cfg,
                        const std::vector<TenantTraffic> &tenants);

} // namespace pei

#endif // PEISIM_SERVE_TRAFFIC_HH
