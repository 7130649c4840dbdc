#include "sim_job.hh"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "runtime/report.hh"
#include "runtime/runtime.hh"

namespace pei
{

void
collectRun(System &sys, RunResult &r, double wall_seconds,
           const std::string &label)
{
    // Every run ends with a stats audit: a figure over inconsistent
    // accounting is as meaningless as one over wrong results.
    const auto violations = sys.stats().audit();
    if (!violations.empty()) {
        std::ostringstream os;
        os << "stats audit failed:";
        for (const auto &v : violations)
            os << " [" << v << "]";
        throw std::runtime_error(os.str());
    }

    r.ticks = sys.now();
    r.wall_seconds = wall_seconds;
    r.events = sys.eventQueue().executedCount();
    r.peis_host = sys.pmu().peisHost();
    r.peis_mem = sys.pmu().peisMem();
    r.offchip_req_bytes = sys.mem().requestBytes();
    r.offchip_res_bytes = sys.mem().responseBytes();
    r.dram_reads = sys.mem().memReads();
    r.dram_writes = sys.mem().memWrites();
    r.retired_ops = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        r.retired_ops += sys.core(c).retiredOps();
    r.energy = computeEnergy(sys.stats());
    r.stats = sys.stats().snapshot();
    r.stats_record = runRecordJson(sys, wall_seconds, label);
}

double
runWatched(Runtime &rt, JobCtx &ctx)
{
    WatchGuard watch(ctx, rt.system().eventQueue());
    const auto wall_start = std::chrono::steady_clock::now();
    rt.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
}

RunResult
runSimJob(const SimJob &job, JobCtx &ctx)
{
    if (job.custom) {
        RunResult r = job.custom(ctx);
        r.status = JobStatus::Ok;
        return r;
    }

    System sys(job.cfg);
    Runtime rt(sys);

    std::unique_ptr<Workload> w = job.factory();
    w->setup(rt);
    w->spawn(rt, sys.numCores());

    const double wall = runWatched(rt, ctx);

    std::string msg;
    if (!w->validate(sys, msg)) {
        throw std::runtime_error(std::string(w->name()) +
                                 " validation failed: " + msg);
    }

    RunResult r;
    collectRun(sys, r, wall, job.label);
    r.status = JobStatus::Ok;
    return r;
}

} // namespace pei
