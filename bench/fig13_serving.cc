/**
 * @file
 * Figure 13 (repo extension): request-driven serving saturation
 * sweep.  Open-loop Poisson traffic at increasing offered rates is
 * pushed through the multi-tenant serving layer (src/serve) under
 * each execution mode; the table reports achieved throughput and
 * p50/p95/p99 total latency, making the tail divergence past the
 * saturation knee visible.  Bursty (MMPP-2) and closed-loop rows
 * plus a FIFO-vs-WFQ pair round out the sweep.
 *
 * The per-point summaries are also written as a deterministic JSON
 * document (default: BENCH_serving.json at the repo root, override
 * with --serving-json PATH) so CI can diff the serving baseline the
 * same way it diffs the stats-v2 records.  Points are rendered in
 * submission order and contain no wall-clock fields, so the document
 * is byte-identical for any --jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "pim/pmu.hh"
#include "runtime/runtime.hh"
#include "serve/server.hh"

using namespace peibench;

namespace
{

/** Two tenants, 3:1 weighted, sharing bounded queues. */
ServeConfig
baseConfig()
{
    ServeConfig scfg;
    scfg.tenants.clear();
    TenantTraffic t0;
    t0.weight = 3.0;
    t0.arrival_share = 0.65;
    t0.queue_cap = 64;
    TenantTraffic t1;
    t1.weight = 1.0;
    t1.arrival_share = 0.35;
    t1.queue_cap = 64;
    scfg.tenants = {t0, t1};
    scfg.policy = SchedPolicy::WeightedFair;
    scfg.workers = 8;
    scfg.batch_max = 4;
    scfg.traffic.requests = 512;
    scfg.traffic.seed = 1;
    return scfg;
}

RunResult
runServe(ExecMode mode, const ServeConfig &scfg, const std::string &label,
         JobCtx &ctx)
{
    const SystemConfig cfg = config(mode);
    System sys(cfg);
    Runtime rt(sys);
    Server server(sys, scfg);
    server.setup(rt);
    server.start(rt);

    const double wall = runWatched(rt, ctx);

    std::string msg;
    if (!server.validate(sys, msg))
        throw std::runtime_error("serving validation failed: " + msg);

    RunResult r;
    collectRun(sys, r, wall, label);
    r.aux_json = "{\"label\":\"" + label + "\",\"mode\":\"" +
                 execModeName(mode) + "\",\"mem_backend\":\"" +
                 cfg.mem_backend + "\",\"summary\":" +
                 server.summaryJson() + "}";
    return r;
}

RunHandle
submitServe(ExecMode mode, const ServeConfig &scfg,
            const std::string &label)
{
    return submitCustom(label, [=](JobCtx &ctx) {
        return runServe(mode, scfg, label, ctx);
    });
}

/** Pull "key":<number> out of one aux summary (rendering only). */
double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = json.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

} // namespace

Renderer
fig13Serving()
{
    const ExecMode modes[] = {ExecMode::HostOnly, ExecMode::PimOnly,
                              ExecMode::LocalityAware};
    const double rates[] = {100, 200, 400, 800, 1600, 3200};

    struct Point
    {
        std::string label;
        RunHandle h;
    };
    std::vector<Point> points;

    for (ExecMode mode : modes) {
        for (double rate : rates) {
            ServeConfig scfg = baseConfig();
            scfg.traffic.mode = TrafficMode::OpenPoisson;
            scfg.traffic.offered_per_mtick = rate;
            const std::string label =
                std::string("poisson/") + execModeName(mode) + "/" +
                std::to_string(static_cast<int>(rate));
            points.push_back({label, submitServe(mode, scfg, label)});
        }
    }
    for (ExecMode mode : modes) {
        ServeConfig scfg = baseConfig();
        scfg.traffic.mode = TrafficMode::OpenBursty;
        scfg.traffic.offered_per_mtick = 400;
        const std::string label =
            std::string("bursty/") + execModeName(mode) + "/400";
        points.push_back({label, submitServe(mode, scfg, label)});
    }
    {
        ServeConfig scfg = baseConfig();
        scfg.traffic.mode = TrafficMode::OpenPoisson;
        scfg.traffic.offered_per_mtick = 1600;
        scfg.policy = SchedPolicy::Fifo;
        const std::string label = "poisson-fifo/loc-aware/1600";
        points.push_back(
            {label, submitServe(ExecMode::LocalityAware, scfg, label)});
    }
    {
        ServeConfig scfg = baseConfig();
        scfg.traffic.mode = TrafficMode::ClosedLoop;
        scfg.traffic.clients = 16;
        scfg.traffic.requests_per_client = 32;
        scfg.traffic.think_mean_ticks = 20'000;
        const std::string label = "closed/loc-aware/16c";
        points.push_back(
            {label, submitServe(ExecMode::LocalityAware, scfg, label)});
    }

    return [points] {
        printHeader(
            "Figure 13", "Serving saturation sweep (offered load vs tail "
                         "latency per execution mode)",
            "PEI benefits carry over to request serving: locality-aware "
            "dispatch sustains higher load before the p99 knee");

        std::printf("%-28s | %8s %8s %5s | %9s %9s %9s\n", "point",
                    "offered", "achieved", "shed", "p50", "p95", "p99");
        for (const Point &p : points) {
            if (!allOk({p.h}))
                continue;
            const std::string &aux = result(p.h).aux_json;
            const double offered = jsonNumber(aux, "offered_per_mtick");
            const double achieved = jsonNumber(aux, "achieved_per_mtick");
            const double shed = jsonNumber(aux, "shed");
            std::printf("%-28s | %8.1f %8.1f %5.0f | %9.0f %9.0f %9.0f%s\n",
                        p.label.c_str(), offered, achieved, shed,
                        jsonNumber(aux, "p50"), jsonNumber(aux, "p95"),
                        jsonNumber(aux, "p99"),
                        achieved < 0.9 * offered ? "  <- saturated" : "");
        }

        // The committed baseline: every run point's summary.
        std::vector<BaselinePoint> baseline;
        for (const Point &p : points)
            baseline.push_back({{p.h}, [&p] { return result(p.h).aux_json; }});
        writeBaseline(baseline);
    };
}
