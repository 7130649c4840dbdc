#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "driver/sweep.hh"
#include "runtime/report.hh"
#include "workloads/input_cache.hh"

namespace peibench
{

namespace
{

std::string stats_json_path;   ///< "" = recording disabled
SweepOptions sweep_opts;

Sweep sweep;                        ///< submitted jobs
std::vector<RunResult> results;     ///< per submission index
SweepReport report;                 ///< filled by sweepRun

/** A non-custom run: equal keys simulate the same thing. */
struct RunKey
{
    WorkloadKind kind;
    InputSize size;
    const NamedGraphSpec *graph; ///< PR on a Fig. 2 graph; then
                                 ///< kind and size are unused
    SystemConfig cfg;

    bool operator==(const RunKey &) const = default;
};
std::vector<std::pair<RunKey, RunHandle>> runs; ///< submission order

const Artifact *rendering = nullptr; ///< artifact whose renderer runs
std::string rendering_path;          ///< its explicit baseline path

/**
 * Guards the flush state below.  Workers append to `completed` as
 * they finish; the periodic flush reads only completed slots, so it
 * never races a slot still being written by another worker.
 */
std::mutex flush_mutex;
std::vector<std::size_t> completed;
std::vector<std::string> failure_records;

/** Write all completed records (submission order) + failures. */
void
flushLocked()
{
    if (stats_json_path.empty())
        return;
    std::vector<std::size_t> order = completed;
    std::sort(order.begin(), order.end());
    std::vector<std::string> records;
    records.reserve(order.size());
    for (std::size_t idx : order) {
        if (!results[idx].stats_record.empty())
            records.push_back(results[idx].stats_record);
    }
    // The hit/miss split is interleaving-independent (one miss per
    // distinct key), so the document stays deterministic for any
    // --jobs once the final atexit flush lands.
    writeRunRecords(stats_json_path, "peibench", records,
                    failure_records,
                    "\"input_cache\":" + inputCacheCountersJson());
}

void
flushAtExit()
{
    std::lock_guard<std::mutex> lock(flush_mutex);
    flushLocked();
}

RunHandle
submitJob(SimJob &&sim)
{
    const std::string label = sim.label;
    return sweep.add(label, [sim = std::move(sim)](JobCtx &ctx) {
        const std::size_t idx = ctx.index();
        results[idx] = runSimJob(sim, ctx);
        // Flush completed records every few jobs so an aborted sweep
        // still leaves a usable (partial) stats-v2 document behind.
        std::lock_guard<std::mutex> lock(flush_mutex);
        completed.push_back(idx);
        if (completed.size() % 16 == 0)
            flushLocked();
    });
}

/** Queue @p key's run, or name its earlier run also @p label. */
RunHandle
submitRun(const RunKey &key, const std::string &label)
{
    for (const auto &[k, h] : runs) {
        if (k == key) {
            sweep.alias(h, label);
            return h;
        }
    }
    SimJob sim;
    sim.label = label;
    sim.factory = [kind = key.kind, size = key.size, graph = key.graph] {
        return graph ? makePageRank(graph->vertices, graph->edges, 1, 1)
                     : makeWorkload(kind, size);
    };
    sim.cfg = key.cfg;
    const RunHandle h = submitJob(std::move(sim));
    runs.emplace_back(key, h);
    return h;
}

/**
 * Execute every submitted job.  Under `--list`, print each distinct
 * run's first label, one per line, and exit(0) instead.
 */
void
sweepRun()
{
    if (sweep_opts.list) {
        for (const std::string &label : sweep.labels())
            std::printf("%s\n", label.c_str());
        std::exit(0);
    }

    results.assign(sweep.size(), RunResult{});
    report = sweep.run(sweep_opts);

    std::lock_guard<std::mutex> lock(flush_mutex);
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const JobOutcome &o = report.outcomes[i];
        if (o.status == JobStatus::Ok)
            continue;
        results[i].status = o.status;
        results[i].error = o.error;
        results[i].wall_seconds = o.wall_seconds;
        if (o.status != JobStatus::Skipped) {
            std::fprintf(stderr, "bench: %s: %s%s%s\n", o.label.c_str(),
                         jobStatusName(o.status),
                         o.error.empty() ? "" : ": ",
                         o.error.c_str());
            failure_records.push_back(failureRecordJson(o));
        }
    }
    flushLocked();
}

/**
 * The artifacts @p only names (comma-separated; "" = all), in table
 * order.  An unknown name is fatal.
 */
std::vector<const Artifact *>
selectArtifacts(const std::vector<Artifact> &artifacts,
                const std::string &only)
{
    std::vector<std::string> names;
    std::istringstream in(only);
    for (std::string name; std::getline(in, name, ',');)
        names.push_back(name);
    const bool all = names.empty();
    std::vector<const Artifact *> selected;
    std::string known;
    for (const Artifact &a : artifacts) {
        known += std::string(known.empty() ? "" : ", ") + a.name;
        if (std::erase(names, a.name) || all)
            selected.push_back(&a);
    }
    fatal_if(!names.empty(),
             "--only: unknown artifact '%s' (artifacts: %s)",
             names.front().c_str(), known.c_str());
    return selected;
}

/** Flush the stats-v2 document, print the summary, return the code. */
int
benchFinish()
{
    {
        std::lock_guard<std::mutex> lock(flush_mutex);
        flushLocked();
        if (!stats_json_path.empty()) {
            std::printf("stats-v2: wrote %zu record(s), %zu failure "
                        "record(s) to %s\n",
                        completed.size(), failure_records.size(),
                        stats_json_path.c_str());
        }
    }

    // Hit/miss totals are interleaving-independent (one miss per
    // unique input, one access per setup), so stdout stays stable.
    const InputCacheCounters cache = inputCacheCounters();
    if (cache.hits + cache.misses) {
        std::printf("input-cache: %llu hit(s), %llu miss(es), "
                    "%llu cached input(s)\n",
                    (unsigned long long)cache.hits,
                    (unsigned long long)cache.misses,
                    (unsigned long long)cache.entries);
    }

    std::fprintf(stderr,
                 "sweep: %zu ok, %zu failed, %zu timed out, "
                 "%zu skipped in %.1fs\n",
                 report.ok, report.failed, report.timed_out,
                 report.skipped, report.wall_seconds);
    return report.clean() ? 0 : 1;
}

} // namespace

int
benchMain(int argc, char **argv, const std::vector<Artifact> &artifacts)
{
    std::string only;
    std::vector<std::string> baseline_paths(artifacts.size());
    std::vector<OwnFlag> own = {{"--stats-json", true, &stats_json_path},
                                {"--only", true, &only}};
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
        if (artifacts[i].baseline_flag)
            own.push_back({artifacts[i].baseline_flag, true,
                           &baseline_paths[i]});
    }
    sweep_opts = sweepOptionsFromArgs(argc, argv, own);
    std::atexit(flushAtExit);

    std::vector<std::pair<const Artifact *, Renderer>> selected;
    for (const Artifact *a : selectArtifacts(artifacts, only))
        selected.emplace_back(a, a->submit());
    sweepRun();
    for (const auto &[a, render] : selected) {
        rendering = a;
        rendering_path = baseline_paths[a - artifacts.data()];
        render();
    }
    return benchFinish();
}

RunHandle
submit(WorkloadKind kind, InputSize size, ExecMode mode,
       const ConfigTweak &tweak, const std::string &label)
{
    RunKey key{kind, size, nullptr, config(mode)};
    if (tweak)
        tweak(key.cfg);
    return submitRun(key, !label.empty()
                              ? label
                              : std::string(kindName(kind)) + "/" +
                                    sizeName(size) + "/" +
                                    execModeName(mode));
}

RunHandle
submitGraph(const NamedGraphSpec &graph, ExecMode mode)
{
    return submitRun({WorkloadKind::PR, InputSize::Small, &graph,
                      config(mode)},
                     std::string("PR/") + graph.name + "/" +
                         execModeName(mode));
}

RunHandle
submitCustom(const std::string &label,
             std::function<RunResult(JobCtx &)> fn)
{
    SimJob sim;
    sim.label = label;
    sim.custom = std::move(fn);
    return submitJob(std::move(sim));
}

SystemConfig
config(ExecMode mode)
{
    SystemConfig cfg = SystemConfig::scaled(mode);
    sweep_opts.knobs.applyTo(cfg);
    return cfg;
}

const SweepOptions &
sweepOptions()
{
    return sweep_opts;
}

const RunResult &
result(RunHandle h)
{
    fatal_if(h >= results.size(),
             "result(%zu) before the sweep or out of range", h);
    return results[h];
}

bool
allOk(std::initializer_list<RunHandle> hs)
{
    for (RunHandle h : hs) {
        if (!result(h).ok())
            return false;
    }
    return true;
}

void
writeBaseline(const std::vector<BaselinePoint> &points)
{
    panic_if(!rendering || !rendering->baseline_file,
             "writeBaseline outside a renderer with a baseline");
    bool failed = false, skipped = false;
    std::string doc =
        std::string("{\"bench\":\"") + rendering->name + "\",\"points\":[";
    for (const BaselinePoint &p : points) {
        bool point_skipped = false, ok = true;
        for (RunHandle h : p.runs) {
            point_skipped = point_skipped ||
                            result(h).status == JobStatus::Skipped;
            ok = ok && result(h).ok();
        }
        skipped = skipped || point_skipped;
        if (point_skipped)
            continue;
        if (!ok) {
            failed = true;
            continue;
        }
        if (doc.back() != '[')
            doc += ",";
        doc += "\n" + p.json();
    }
    doc += "\n]}\n";

    // The file at the repo root holds the full default sweep only;
    // any other run writes its baseline only where its flag points.
    std::string path = rendering_path;
    if (path.empty() && !skipped && sweep_opts.knobs.offDefault().empty())
        path = std::string(PEISIM_ROOT "/") + rendering->baseline_file;
    if (failed || path.empty()) {
        std::fprintf(stderr, "%s: baseline NOT written (%s)\n",
                     rendering->name,
                     failed ? "failed points"
                            : "skipped points or off-default knobs; "
                              "name a path to write one");
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    out << doc;
    std::fprintf(stderr, "%s: baseline written to %s\n", rendering->name,
                 path.c_str());
}

std::vector<LinkStats>
linkStats(const RunResult &r)
{
    if (!r.stats.count("link0.flits"))
        return {};
    return {{0, r.stat("link0.flits"), r.stat("link0.busy_ticks")},
            {1, r.stat("link1.flits"), r.stat("link1.busy_ticks")}};
}

void
printHeader(const std::string &figure, const std::string &what,
            const std::string &paper_claim)
{
    std::printf("==================================================="
                "===========================\n");
    std::printf("%s — %s\n", figure.c_str(), what.c_str());
    std::printf("Paper: %s\n", paper_claim.c_str());
    std::printf("Config: SystemConfig::scaled() — 16 cores, 1 MB L3, "
                "1 HMC x 16 vaults, 5 GB/s/dir links\n");
    std::printf("==================================================="
                "===========================\n");
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace peibench
