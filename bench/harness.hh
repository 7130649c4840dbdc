/**
 * @file
 * Shared bench harness, sweep edition: every table and figure is an
 * Artifact whose submit function queues each simulation it needs as
 * a labelled job and returns the renderer that prints it.  One
 * binary (peibench) submits the `--only` artifacts, runs the union
 * of their jobs across a worker pool (`--jobs N`, per-job
 * `--timeout-s`, `--filter`, `--list`), then renders each artifact
 * from the collected results.
 *
 * A submission whose workload and full SystemConfig equal an earlier
 * one's returns the earlier handle, so each distinct run simulates
 * once however many artifacts read it.  Every artifact prints the
 * paper's claim next to the measured rows so the comparison is
 * auditable from the raw output.  Rendering happens strictly after
 * the sweep, from results keyed by submission index, so stdout is
 * byte-identical regardless of worker count.
 */

#ifndef PEISIM_BENCH_HARNESS_HH
#define PEISIM_BENCH_HARNESS_HH

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "driver/sim_job.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace peibench
{

using namespace pei;

/** Index of a submitted run; pass to result() after the sweep. */
using RunHandle = std::size_t;

/** Hook to tweak a run's SystemConfig after the knob flags. */
using ConfigTweak = std::function<void(SystemConfig &)>;

/** Prints one artifact from the sweep's results. */
using Renderer = std::function<void()>;

/** One paper table or figure, as peibench's `--only` names it. */
struct Artifact
{
    const char *name; ///< e.g. "fig06_speedup"
    /** Queue every run the artifact reads; return its renderer. */
    Renderer (*submit)();
    /**
     * The flag naming the path of the committed baseline document
     * the renderer writes (see writeBaseline()), and the document's
     * default file at the repo root; null for none.
     */
    const char *baseline_flag = nullptr;
    const char *baseline_file = nullptr;
};

/**
 * peibench's main: parse the harness flags (`--stats-json`,
 * `--only`, `--jobs`, `--timeout-s`, `--filter`, `--list`,
 * `--no-progress`), knob flags and every artifact's baseline flag;
 * submit the `--only` artifacts (default: all) in table order; run
 * the sweep; render each; flush the stats-v2 document and print the
 * sweep summary.  Returns the exit code: 0 clean, 1 when any job
 * failed or timed out.  Any other argument, or an unknown `--only`
 * name, is fatal.
 */
int benchMain(int argc, char **argv, const std::vector<Artifact> &artifacts);

/**
 * Queue a run of the Table 3 workload @p kind / @p size on
 * SystemConfig::scaled(@p mode), the knob flags and @p tweak, in
 * that order.  Labelled @p label, default "<kind>/<size>/<mode>".
 */
RunHandle submit(WorkloadKind kind, InputSize size, ExecMode mode,
                 const ConfigTweak &tweak = nullptr,
                 const std::string &label = "");

/** Queue one-iteration PageRank on a Fig. 2 @p graph, labelled
 *  "PR/<graph>/<mode>". */
RunHandle submitGraph(const NamedGraphSpec &graph, ExecMode mode);

/**
 * Queue a fully custom job (e.g. two workloads sharing one System);
 * it never merges with another.  @p fn runs inside a worker: it must
 * run under runWatched (for timeouts) and fill the result via
 * collectRun.
 */
RunHandle submitCustom(const std::string &label,
                       std::function<RunResult(JobCtx &)> fn);

/** SystemConfig::scaled(@p mode) with the knob flags applied. */
SystemConfig config(ExecMode mode);

/** Result of a submitted run (valid only once renderers run). */
const RunResult &result(RunHandle h);

/** The harness-level sweep options parsed by benchMain(). */
const SweepOptions &sweepOptions();

/** True when every listed run completed Ok — use to guard a row. */
bool allOk(std::initializer_list<RunHandle> hs);

/** One baseline point: the runs it reports and its JSON text. */
struct BaselinePoint
{
    std::vector<RunHandle> runs;
    std::function<std::string()> json; ///< called once every run is Ok
};

/**
 * Write `{"bench":"<name>","points":[...]}`, one point per line in
 * submission order, as the baseline of the artifact being rendered.
 * A point with a run that --filter skipped is omitted.  A failed or
 * timed-out point suppresses the write, so a broken sweep never
 * refreshes a baseline; the default path at the repo root is written
 * only when no point was skipped and every knob is at its default,
 * while a path given by the artifact's flag is always written.  The
 * note about it goes to stderr, so stdout does not depend on it.
 */
void writeBaseline(const std::vector<BaselinePoint> &points);

/** One chain link's counters ("link<N>.flits", ".busy_ticks"). */
struct LinkStats
{
    unsigned index = 0;
    std::uint64_t flits = 0;
    std::uint64_t busy_ticks = 0;
};

/**
 * The daisy chain's request link (link0) and response link (link1)
 * of @p r; empty for a run without them, e.g. on a non-HMC backend.
 */
std::vector<LinkStats> linkStats(const RunResult &r);

/** Print the standard bench header. */
void printHeader(const std::string &figure, const std::string &what,
                 const std::string &paper_claim);

/** Geometric mean helper. */
double geomean(const std::vector<double> &xs);

/** @p v printed with printf @p format, for baseline JSON numbers. */
std::string fmt(const char *format, double v);

} // namespace peibench

#endif // PEISIM_BENCH_HARNESS_HH
