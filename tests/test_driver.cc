/**
 * @file
 * Tests of the experiment-sweep driver: WorkerPool exactly-once
 * dispatch and submission-order aggregation, per-job failure isolation
 * and timeouts, input-cache sharing, the headline guarantee —
 * stats-v2 records are byte-identical (modulo wall-clock fields)
 * regardless of how many workers execute the sweep — and the knob
 * flags: parsing, validation, and their effect on records.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzz_case.hh"
#include "driver/options.hh"
#include "driver/sim_job.hh"
#include "driver/sweep.hh"
#include "driver/worker_pool.hh"
#include "runtime/runtime.hh"
#include "workloads/input_cache.hh"

namespace pei
{
namespace
{

TEST(WorkerPool, OutcomesInSubmissionOrder)
{
    // Earlier jobs sleep longer, so with several workers they finish
    // out of order — outcomes must still come back by submission, and
    // every job must run exactly once (a job run twice would still
    // report Ok, so each one counts its runs).
    constexpr int n = 64;
    std::vector<std::atomic<int>> runs(n);
    std::vector<Job> jobs;
    for (int i = 0; i < n; ++i) {
        jobs.push_back(Job{
            "job" + std::to_string(i), [i, &runs](JobCtx &ctx) {
                EXPECT_EQ(ctx.index(), static_cast<std::size_t>(i));
                ++runs[i];
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100 * (n - i)));
            }});
    }
    WorkerPool pool(4, 0.0);
    const auto outcomes = pool.run(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].label, "job" + std::to_string(i));
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok);
        EXPECT_EQ(runs[i].load(), 1) << "job" << i;
    }
}

TEST(WorkerPool, FailureIsolation)
{
    std::vector<Job> jobs;
    jobs.push_back(Job{"good0", [](JobCtx &) {}});
    jobs.push_back(Job{"bad", [](JobCtx &) {
                           throw std::runtime_error("boom");
                       }});
    jobs.push_back(Job{"good1", [](JobCtx &) {}});
    jobs.push_back(Job{"skipped", nullptr});

    WorkerPool pool(2, 0.0);
    const auto outcomes = pool.run(jobs);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_NE(outcomes[1].error.find("boom"), std::string::npos);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[3].status, JobStatus::Skipped);
}

SystemConfig
tinyConfig(ExecMode mode)
{
    SystemConfig cfg = SystemConfig::scaled(mode);
    cfg.cores = 4;
    cfg.phys_bytes = 64ULL << 20;
    cfg.cache.l1_bytes = 4 << 10;
    cfg.cache.l2_bytes = 16 << 10;
    cfg.cache.l3_bytes = 256 << 10;
    cfg.hmc.num_cubes = 1;
    cfg.hmc.vaults_per_cube = 4;
    return cfg;
}

TEST(WorkerPool, TimeoutCancelsEndlessSimulation)
{
    std::vector<Job> jobs;
    jobs.push_back(Job{"endless", [](JobCtx &ctx) {
        System sys(tinyConfig(ExecMode::HostOnly));
        Runtime rt(sys);
        rt.spawn(0, [](Ctx &c) -> Task {
            for (;;)
                co_await c.compute(1000);
        });
        WatchGuard watch(ctx, sys.eventQueue());
        rt.run();  // never returns normally; watchdog stops it
    }});
    jobs.push_back(Job{"finite", [](JobCtx &) {}});

    const auto t0 = std::chrono::steady_clock::now();
    WorkerPool pool(2, 0.2);
    const auto outcomes = pool.run(jobs);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].status, JobStatus::TimedOut);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_LT(elapsed, 30.0);  // far below "endless"
}

TEST(Sweep, FilterSkipsNonMatchingJobs)
{
    Sweep sweep;
    std::atomic<int> ran{0};
    sweep.add("ATF/small", [&](JobCtx &) { ++ran; });
    sweep.add("PR/small", [&](JobCtx &) { ++ran; });
    sweep.add("PR/large", [&](JobCtx &) { ++ran; });

    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.filter = "PR/";
    const SweepReport report = sweep.run(opts);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(report.ok, 2u);
    EXPECT_EQ(report.skipped, 1u);
    EXPECT_EQ(report.outcomes[0].status, JobStatus::Skipped);
    EXPECT_TRUE(report.clean());
}

TEST(SweepDeathTest, DuplicateLabelFatals)
{
    Sweep sweep;
    sweep.add("PR/small/PIM-Only", [](JobCtx &) {});
    const std::size_t other = sweep.add("PR/large/PIM-Only", [](JobCtx &) {});
    EXPECT_DEATH(sweep.add("PR/small/PIM-Only", [](JobCtx &) {}),
                 "duplicate job label 'PR/small/PIM-Only'");
    // An alias may repeat its own job's label, not another job's.
    sweep.alias(other, "PR/large/PIM-Only");
    EXPECT_DEATH(sweep.alias(other, "PR/small/PIM-Only"),
                 "duplicate job label 'PR/small/PIM-Only'");
}

// --filter matches a job by any of its labels; --list shows the first.
TEST(Sweep, FilterMatchesAliases)
{
    Sweep sweep;
    std::atomic<int> ran{0};
    sweep.add("ATF/medium/PIM-Only", [&](JobCtx &) { ++ran; });
    sweep.add("PR/small/PIM-Only", [&](JobCtx &) { ++ran; });
    sweep.alias(0, "atf/batch1");

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.filter = "batch1";
    const SweepReport report = sweep.run(opts);
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(report.outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(report.outcomes[1].status, JobStatus::Skipped);
    const std::vector<std::string> first = {"ATF/medium/PIM-Only",
                                            "PR/small/PIM-Only"};
    EXPECT_EQ(sweep.labels(), first);
}

TEST(InputCache, SharesOneInstancePerKey)
{
    clearInputCache();
    std::atomic<int> builds{0};
    const auto build = [&builds] {
        ++builds;
        return std::vector<int>{1, 2, 3};
    };
    const std::vector<int> *first = nullptr;
    std::vector<std::thread> threads;
    std::mutex first_mutex;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            const std::vector<int> &v =
                cachedInput<std::vector<int>>("test/shared", build);
            std::lock_guard<std::mutex> lock(first_mutex);
            if (!first)
                first = &v;
            EXPECT_EQ(first, &v);  // same instance for every caller
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    const InputCacheCounters c = inputCacheCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 3u);
    EXPECT_EQ(c.entries, 1u);
    clearInputCache();
}

/** Mask the host-timing fields that legitimately vary run to run. */
std::string
stripWallClock(std::string record)
{
    for (const std::string key :
         {"\"wall_seconds\":", "\"events_per_sec\":"}) {
        for (std::size_t at = record.find(key); at != std::string::npos;
             at = record.find(key, at)) {
            at += key.size();
            const std::size_t end =
                record.find_first_not_of("-+0123456789.eE", at);
            if (end != at)
                record.replace(at, end - at, "X");
        }
    }
    return record;
}

TEST(Sweep, RecordsIdenticalAcrossWorkerCounts)
{
    const auto runSweep = [](unsigned workers) {
        clearInputCache();
        std::vector<SimJob> sims;
        for (ExecMode mode :
             {ExecMode::HostOnly, ExecMode::PimOnly,
              ExecMode::LocalityAware}) {
            SimJob sim;
            sim.label = std::string("PR/small/") + execModeName(mode);
            sim.factory = [] {
                return makeWorkload(WorkloadKind::PR, InputSize::Small);
            };
            sim.cfg = SystemConfig::scaled(mode);
            sim.cfg.cores = 4;
            sim.cfg.hmc.vaults_per_cube = 4;
            sims.push_back(std::move(sim));
        }

        std::vector<RunResult> results(sims.size());
        Sweep sweep;
        for (std::size_t i = 0; i < sims.size(); ++i) {
            sweep.add(sims[i].label, [&, i](JobCtx &ctx) {
                results[i] = runSimJob(sims[i], ctx);
            });
        }
        SweepOptions opts;
        opts.jobs = workers;
        opts.progress = false;
        const SweepReport report = sweep.run(opts);
        EXPECT_TRUE(report.clean());

        std::vector<std::string> records;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunResult &r = results[i];
            EXPECT_TRUE(r.ok());
            // The record carries its job's label.
            EXPECT_EQ(r.stats_record.rfind(
                          "{\"label\":\"" + sims[i].label + "\",", 0),
                      0u)
                << sims[i].label;
            records.push_back(stripWallClock(r.stats_record));
        }
        return records;
    };

    const auto serial = runSweep(1);
    const auto parallel = runSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "record " << i;
}

/** Parse @p args (after a program name) as bench flags. */
SweepOptions
parseFlags(std::vector<std::string> args,
           const std::vector<OwnFlag> &own = {})
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return sweepOptionsFromArgs(static_cast<int>(argv.size()), argv.data(),
                                own);
}

/**
 * The stats-v2 record, wall-clock fields stripped, of the 4-core
 * PR/small Locality-Aware job above, configured by @p knobs.
 */
std::string
prSmallRecord(const KnobSet &knobs)
{
    SimJob sim;
    sim.label = "PR/small/Locality-Aware";
    sim.factory = [] {
        return makeWorkload(WorkloadKind::PR, InputSize::Small);
    };
    sim.cfg = SystemConfig::scaled(ExecMode::LocalityAware);
    knobs.applyTo(sim.cfg);
    sim.cfg.cores = 4;
    sim.cfg.hmc.vaults_per_cube = 4;
    RunResult r;
    Sweep sweep;
    sweep.add(sim.label, [&](JobCtx &ctx) { r = runSimJob(sim, ctx); });
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    EXPECT_TRUE(sweep.run(opts).clean());
    return stripWallClock(r.stats_record);
}

// Spelling a knob's default explicitly must configure exactly the
// default run, and the display rule must render nothing for it.
TEST(Knobs, ExplicitDefaultMatchesUnset)
{
    const std::string unset = prSmallRecord(KnobSet{});
    const SystemConfig defaults = SystemConfig::scaled();
    for (const Knob &k : knobTable()) {
        const std::string flag = k.flag();
        const std::string value = k.get(defaults);
        const SweepOptions opts = parseFlags({flag, value});
        EXPECT_FALSE(opts.knobs.empty()) << flag;
        EXPECT_TRUE(opts.knobs.offDefault().empty()) << flag;
        EXPECT_EQ(prSmallRecord(opts.knobs), unset) << flag << " " << value;
    }
    EXPECT_TRUE(KnobSet::of(defaults).offDefault().empty());
}

// The flag parser and the reproducer parser share each knob's
// validation, so both reject the same values.
TEST(Knobs, FlagsAndReproducersRejectOutOfRangeValues)
{
    fuzz::FuzzCaseId id;
    fuzz::FuzzOptions opt;
    ASSERT_TRUE(fuzz::parseReplayFile("seed=1\n", id, opt));
    const std::pair<const char *, const char *> bad[] = {
        {"cubes", "3"},
        {"pei_batch", "65"},
        {"mem_backend", "nvram"},
    };
    for (const auto &[key, value] : bad) {
        const Knob *knob = findKnob(key);
        ASSERT_NE(knob, nullptr) << key;
        const std::string flag = knob->flag();
        EXPECT_DEATH(parseFlags({flag, value}),
                     flag + " .*'" + value + "'");
        EXPECT_FALSE(fuzz::parseReplayFile(
            std::string("seed=1\n") + key + "=" + value + "\n", id, opt))
            << key << "=" << value;
    }
    // Reproducers spell the backend with its knob key.
    EXPECT_FALSE(fuzz::parseReplayFile("seed=1\nbackend=ddr\n", id, opt));
    // The coherence knob is gone, so reproducers that still pin it
    // are rejected rather than replayed on a different machine.
    EXPECT_FALSE(
        fuzz::parseReplayFile("seed=1\ncoherence=eager\n", id, opt));
    // So is the PMU bank count, which every older reproducer pins.
    EXPECT_FALSE(
        fuzz::parseReplayFile("seed=1\npmu_shards=1\n", id, opt));
    // So are the vault-PCU queue depth and the window timeout.
    EXPECT_FALSE(
        fuzz::parseReplayFile("seed=1\nqueue_depth=0\n", id, opt));
    EXPECT_FALSE(fuzz::parseReplayFile("seed=1\nbatch_window_ticks=256\n",
                                       id, opt));
    // So is the interconnect topology, even at its old default.
    EXPECT_FALSE(
        fuzz::parseReplayFile("seed=1\ntopology=chain\n", id, opt));
}

// A flag no binary owns is an error, not a silent default run: a
// removed knob and a typo alike.
TEST(Knobs, UnknownFlagsAreRejected)
{
    EXPECT_DEATH(parseFlags({"--coherence", "lazy"}),
                 "unknown argument '--coherence'");
    EXPECT_DEATH(parseFlags({"--pmu-shards", "4"}),
                 "unknown argument '--pmu-shards'");
    EXPECT_DEATH(parseFlags({"--queue-depth", "8"}),
                 "unknown argument '--queue-depth'");
    EXPECT_DEATH(parseFlags({"--batch-window-ticks", "64"}),
                 "unknown argument '--batch-window-ticks'");
    EXPECT_DEATH(parseFlags({"--topology", "ring"}),
                 "unknown argument '--topology'");
    EXPECT_DEATH(parseFlags({"--backend-sweep"}),
                 "unknown argument '--backend-sweep'");
    EXPECT_DEATH(parseFlags({"--jbos", "4"}), "unknown argument '--jbos'");
    EXPECT_DEATH(parseFlags({"--jobs", "4", "stray"}),
                 "unknown argument 'stray'");

    // A binary's own flags pass through, values and all, and a value
    // lands where the flag points.
    std::string stats_json;
    const std::vector<OwnFlag> own = {{"--stats-json", true, &stats_json},
                                      {"--no-shrink", false}};
    const SweepOptions opts = parseFlags(
        {"--stats-json", "out.json", "--no-shrink", "--jobs=2"}, own);
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_EQ(stats_json, "out.json");
    EXPECT_DEATH(parseFlags({"--no-shrink=1"}, own),
                 "unknown argument '--no-shrink=1'");
}

// A record names every off-default knob in its config block, in
// table order, ahead of hmc_cubes.
TEST(Knobs, RecordConfigNamesOffDefaultKnobs)
{
    const SweepOptions opts =
        parseFlags({"--cubes", "2", "--pei-batch", "4"});
    const std::string record = prSmallRecord(opts.knobs);
    const std::size_t begin = record.find("\"config\":{");
    ASSERT_NE(begin, std::string::npos);
    const std::string config =
        record.substr(begin, record.find('}', begin) - begin);
    EXPECT_NE(config.find(",\"cubes\":2,\"pei_batch\":4,\"hmc_cubes\":"),
              std::string::npos)
        << config;
}

} // namespace
} // namespace pei
