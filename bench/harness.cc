#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "driver/sweep.hh"
#include "runtime/report.hh"
#include "workloads/input_cache.hh"

namespace peibench
{

namespace
{

std::string bench_name;        ///< set by benchInit
std::string stats_json_path;   ///< "" = recording disabled
std::string baseline_path;     ///< "" = no baseline document
SweepOptions sweep_opts;

Sweep sweep;                        ///< submitted jobs
std::vector<RunResult> results;     ///< per submission index
SweepReport report;                 ///< filled by sweepRun

/**
 * Guards the flush state below.  Workers append to `completed` as
 * they finish; the periodic flush reads only completed slots, so it
 * never races a slot still being written by another worker.
 */
std::mutex flush_mutex;
std::vector<std::size_t> completed;
std::vector<std::string> failure_records;
bool flush_registered = false;

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
    writeRunRecords(stats_json_path, bench_name, records,
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
    // The knob flags apply to every submitted simulation.
    sim.knobs = sweep_opts.knobs;
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

} // namespace

void
benchInit(int argc, char **argv, const std::string &name,
          Baseline baseline)
{
    bench_name = name;
    std::vector<OwnFlag> own = {{"--stats-json", true, &stats_json_path}};
    if (baseline.flag) {
        baseline_path = std::string(PEISIM_ROOT "/") + baseline.file;
        own.push_back({baseline.flag, true, &baseline_path});
    }
    sweep_opts = sweepOptionsFromArgs(argc, argv, own);
    if (!flush_registered) {
        std::atexit(flushAtExit);
        flush_registered = true;
    }
}

RunHandle
submit(WorkloadKind kind, InputSize size, ExecMode mode,
       const ConfigTweak &tweak)
{
    SimJob sim;
    sim.label = std::string(kindName(kind)) + "/" + sizeName(size) + "/" +
                execModeName(mode);
    sim.factory = [kind, size] { return makeWorkload(kind, size); };
    sim.mode = mode;
    sim.tweak = tweak;
    return submitJob(std::move(sim));
}

RunHandle
submitWorkload(const std::function<std::unique_ptr<Workload>()> &factory,
               const std::string &label, ExecMode mode,
               const ConfigTweak &tweak, unsigned threads)
{
    SimJob sim;
    sim.label = label;
    sim.factory = factory;
    sim.mode = mode;
    sim.tweak = tweak;
    sim.threads = threads;
    return submitJob(std::move(sim));
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

const SweepOptions &
sweepOptions()
{
    return sweep_opts;
}

const RunResult &
result(RunHandle h)
{
    fatal_if(h >= results.size(),
             "result(%zu) before sweepRun() or out of range", h);
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

void
writeBaseline(const std::vector<BaselinePoint> &points)
{
    panic_if(baseline_path.empty(), "%s declares no baseline",
             bench_name.c_str());
    bool all_ok = true;
    std::string doc = "{\"bench\":\"" + bench_name + "\",\"points\":[";
    for (const BaselinePoint &p : points) {
        bool skipped = false, ok = true;
        for (RunHandle h : p.runs) {
            skipped = skipped || result(h).status == JobStatus::Skipped;
            ok = ok && result(h).ok();
        }
        if (skipped)
            continue;
        if (!ok) {
            all_ok = false;
            continue;
        }
        if (doc.back() != '[')
            doc += ",";
        doc += "\n" + p.json();
    }
    doc += "\n]}\n";
    if (!all_ok) {
        std::fprintf(stderr, "%s: baseline NOT written (failed points)\n",
                     bench_name.c_str());
        return;
    }
    std::ofstream out(baseline_path, std::ios::trunc);
    out << doc;
    std::fprintf(stderr, "%s: baseline written to %s\n",
                 bench_name.c_str(), baseline_path.c_str());
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
