#include "sweep.hh"

#include <chrono>
#include <sstream>

#include "common/logging.hh"
#include "driver/progress.hh"
#include "driver/worker_pool.hh"
#include "runtime/report.hh"

namespace pei
{

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Skipped: return "skipped";
    }
    return "?";
}

std::string
failureRecordJson(const JobOutcome &outcome)
{
    std::ostringstream os;
    os << "{\"label\":\"" << jsonEscape(outcome.label) << "\""
       << ",\"status\":\"" << jobStatusName(outcome.status) << "\""
       << ",\"error\":\"" << jsonEscape(outcome.error) << "\""
       << ",\"wall_seconds\":" << outcome.wall_seconds << "}";
    return os.str();
}

std::size_t
Sweep::add(std::string label, std::function<void(JobCtx &)> fn)
{
    const bool added = owner.emplace(label, jobs.size()).second;
    fatal_if(!added, "duplicate job label '%s'", label.c_str());
    jobs.push_back(Job{std::move(label), std::move(fn)});
    return jobs.size() - 1;
}

void
Sweep::alias(std::size_t index, const std::string &label)
{
    const auto [it, added] = owner.emplace(label, index);
    fatal_if(!added && it->second != index, "duplicate job label '%s'",
             label.c_str());
}

std::vector<std::string>
Sweep::labels() const
{
    std::vector<std::string> out;
    out.reserve(jobs.size());
    for (const Job &job : jobs)
        out.push_back(job.label);
    return out;
}

SweepReport
Sweep::run(const SweepOptions &opts)
{
    // --filter drops jobs by nulling their fn: submission indices
    // stay stable, so result slots still line up with handles.
    std::vector<Job> filtered = jobs;
    if (!opts.filter.empty()) {
        std::vector<bool> keep(jobs.size());
        for (const auto &[label, index] : owner) {
            if (label.find(opts.filter) != std::string::npos)
                keep[index] = true;
        }
        for (std::size_t i = 0; i < filtered.size(); ++i) {
            if (!keep[i])
                filtered[i].fn = nullptr;
        }
    }

    ProgressPrinter progress(opts.progress);
    WorkerPool pool(resolveWorkerCount(opts), opts.timeout_s);

    const auto start = std::chrono::steady_clock::now();
    SweepReport report;
    report.outcomes = pool.run(
        filtered,
        [&progress](const JobOutcome &outcome, std::size_t done,
                    std::size_t total) {
            progress.jobDone(outcome, done, total);
        });
    progress.finish();
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

    for (const JobOutcome &outcome : report.outcomes) {
        switch (outcome.status) {
          case JobStatus::Ok: ++report.ok; break;
          case JobStatus::Failed: ++report.failed; break;
          case JobStatus::TimedOut: ++report.timed_out; break;
          case JobStatus::Skipped: ++report.skipped; break;
        }
    }
    return report;
}

} // namespace pei
