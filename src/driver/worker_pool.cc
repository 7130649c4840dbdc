#include "worker_pool.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace pei
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Shared state between one worker and the watchdog.  The slot mutex
 * orders the watchdog's requestStop against the worker destroying
 * the watched EventQueue (unwatch locks the same mutex), so the
 * watchdog never pokes a dead queue.
 */
struct Slot
{
    std::mutex mutex;
    EventQueue *eq = nullptr;            ///< queue of the active job
    Clock::time_point deadline;          ///< valid while armed
    bool armed = false;                  ///< a job is running
    bool timed_out = false;              ///< watchdog verdict
};

/** JobCtx implementation bound to one worker slot. */
class SlotCtx : public JobCtx
{
  public:
    SlotCtx(Slot &slot, std::size_t index) : slot(slot), index_(index) {}

    std::size_t index() const override { return index_; }

    void
    watch(EventQueue &eq) override
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.eq = &eq;
        // A job flagged before it registered its queue (setup alone
        // blew the deadline) is cancelled on registration instead of
        // waiting for the next watchdog pass.
        if (slot.timed_out)
            eq.requestStop();
    }

    void
    unwatch() override
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.eq = nullptr;
    }

    bool
    timedOut() const override
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        return slot.timed_out;
    }

  private:
    Slot &slot;
    std::size_t index_;
};

} // namespace

WorkerPool::WorkerPool(unsigned workers, double timeout_s)
    : workers(workers ? workers : 1), timeout_s(timeout_s)
{}

std::vector<JobOutcome>
WorkerPool::run(const std::vector<Job> &jobs, const JobDoneFn &on_done)
{
    std::vector<JobOutcome> outcomes(jobs.size());

    // Skipped jobs are never dispatched; their outcomes are emitted
    // up front so `done/total` counts real work only.
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        outcomes[i].label = jobs[i].label;
        if (jobs[i].fn)
            runnable.push_back(i);
        else
            outcomes[i].status = JobStatus::Skipped;
    }

    // Workers claim runnable jobs in ascending submission order, each
    // exactly once, by advancing one shared cursor.
    std::atomic<std::size_t> cursor{0};
    std::vector<Slot> slots(this->workers);

    std::mutex done_mutex;
    std::size_t done = 0;

    auto worker_loop = [&](unsigned wid) {
        Slot &slot = slots[wid];
        for (std::size_t k = cursor++; k < runnable.size(); k = cursor++) {
            const std::size_t idx = runnable[k];
            {
                std::lock_guard<std::mutex> lock(slot.mutex);
                slot.armed = timeout_s > 0.0;
                slot.timed_out = false;
                slot.deadline =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(timeout_s));
            }
            SlotCtx ctx(slot, idx);
            JobOutcome &out = outcomes[idx];
            const auto start = Clock::now();
            try {
                jobs[idx].fn(ctx);
                out.status = JobStatus::Ok;
            } catch (const SimulationStopped &) {
                out.status = ctx.timedOut() ? JobStatus::TimedOut
                                            : JobStatus::Failed;
                out.error = ctx.timedOut()
                                ? "exceeded per-job timeout"
                                : "simulation stopped";
            } catch (const std::exception &e) {
                out.status = JobStatus::Failed;
                out.error = e.what();
            } catch (...) {
                out.status = JobStatus::Failed;
                out.error = "unknown exception";
            }
            out.wall_seconds =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            {
                std::lock_guard<std::mutex> lock(slot.mutex);
                slot.armed = false;
                slot.eq = nullptr; // defensive: job forgot unwatch
            }
            {
                std::lock_guard<std::mutex> lock(done_mutex);
                ++done;
                if (on_done)
                    on_done(out, done, runnable.size());
            }
        }
    };

    {
        // Workers + watchdog live inside this scope; jthread joins on
        // destruction, and the watchdog's stop_token ends its loop.
        std::vector<std::jthread> threads;
        threads.reserve(this->workers + 1);
        for (unsigned w = 0; w < this->workers; ++w)
            threads.emplace_back(worker_loop, w);

        std::jthread watchdog([&](std::stop_token stop) {
            if (timeout_s <= 0.0)
                return;
            while (!stop.stop_requested()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                const auto now = Clock::now();
                for (Slot &slot : slots) {
                    std::lock_guard<std::mutex> lock(slot.mutex);
                    if (!slot.armed || slot.timed_out ||
                        now < slot.deadline) {
                        continue;
                    }
                    slot.timed_out = true;
                    if (slot.eq)
                        slot.eq->requestStop();
                }
            }
        });

        for (auto &t : threads)
            t.join();
        watchdog.request_stop();
    }

    return outcomes;
}

} // namespace pei
