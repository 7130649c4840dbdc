/**
 * @file
 * Sweep: the job-level experiment orchestrator.
 *
 * Benches describe their whole figure as a list of labelled jobs,
 * then hand the list to Sweep::run, which executes them across a
 * WorkerPool with per-job timeouts and failure isolation and returns
 * every outcome keyed by submission index.  Rendering happens
 * afterwards, from the collected results, so the emitted tables and
 * merged stats-v2 documents are byte-identical regardless of
 * `--jobs N` or thread interleaving.
 */

#ifndef PEISIM_DRIVER_SWEEP_HH
#define PEISIM_DRIVER_SWEEP_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "driver/job.hh"
#include "driver/options.hh"

namespace pei
{

/** Aggregated result of one sweep; outcomes are in submission order. */
struct SweepReport
{
    std::vector<JobOutcome> outcomes;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timed_out = 0;
    std::size_t skipped = 0;
    double wall_seconds = 0.0;

    /** True when no job failed or timed out (skips are fine). */
    bool clean() const { return failed == 0 && timed_out == 0; }
};

/**
 * Failure record of @p outcome for the stats-v2 "failures" array:
 * {"label", "status", "error", "wall_seconds"}.
 */
std::string failureRecordJson(const JobOutcome &outcome);

class Sweep
{
  public:
    /**
     * Append a job; returns its submission index.  Labels name jobs
     * in --filter, --list and stats-v2 records, so a label already
     * naming a job is fatal.
     */
    std::size_t add(std::string label, std::function<void(JobCtx &)> fn);

    /**
     * Name job @p index also @p label: --filter matches it, while
     * --list and records keep the job's first label.  Fatal if
     * @p label names another job; a no-op if it names this one.
     */
    void alias(std::size_t index, const std::string &label);

    /** First labels of all added jobs, in submission order. */
    std::vector<std::string> labels() const;

    std::size_t size() const { return jobs.size(); }

    /**
     * Execute every job with a label that passes opts.filter
     * (substring match; filtered-out jobs yield Skipped outcomes) on
     * resolveWorkerCount(opts) workers and return the report.
     * Ignores opts.list — callers decide how to render a listing.
     */
    SweepReport run(const SweepOptions &opts);

  private:
    std::vector<Job> jobs;
    std::map<std::string, std::size_t> owner; ///< every label -> job
};

} // namespace pei

#endif // PEISIM_DRIVER_SWEEP_HH
