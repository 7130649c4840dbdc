/**
 * @file
 * simfuzz: randomized differential testing of PEI execution.
 *
 * Runs N generated cases (see check/program.hh) in parallel on the
 * driver's WorkerPool; every case executes under all four execution
 * modes on a fuzzed SystemConfig with invariant probes armed and is
 * cross-checked against the sequential golden model.  Failing cases
 * are shrunk to a minimal (seed, prefix, thread-mask) reproducer and
 * printed as a ready-to-run `simfuzz --replay-seed ...` command line.
 *
 *   simfuzz --cases 1000 --jobs 4            # the acceptance sweep
 *   simfuzz --inject-bug skip-unlock         # checker self-test
 *   simfuzz --replay-seed 0x1234 --replay-config 2
 *   simfuzz --replay-file repro.simfuzz
 *
 * All output on stdout is deterministic for a fixed master seed:
 * results are reported in submission order and shrinking is
 * sequential, so two runs with different --jobs produce identical
 * stdout (the live progress line and the wall time live on stderr).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz_case.hh"
#include "driver/options.hh"
#include "driver/sweep.hh"

using namespace pei;
using namespace pei::fuzz;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --cases N            fuzz cases to run (default 200)\n"
        "  --master-seed S      master seed (default 12345)\n"
        "  --configs K          fuzzed configs in rotation (default 4)\n"
        "  --probe-every N      probe cadence in events (default 64)\n"
        "  --inject-bug B       checker self-test: skip-unlock |\n"
        "                       skip-back-inval\n"
        "  --no-shrink          report failures without minimizing\n"
        "  --max-failures N     stop shrinking after N failures "
        "(default 4)\n"
        "  --failure-dir DIR    write reproducer files for failures\n"
        "  --replay-seed S      replay one case (with --replay-config,\n"
        "                       --replay-prefix, --replay-mask)\n"
        "  --replay-file FILE   replay a written reproducer\n"
        "  --jobs N / --timeout-s S / --no-progress  (sweep driver)\n"
        "knobs, each pinning every case (default: fuzzed per config):\n",
        argv0);
    for (const Knob &k : knobTable())
        std::printf("  %-24s %s\n", (k.flag() + " V").c_str(), k.help);
}

/** --flag value / --flag=value accessor over argv. */
std::optional<std::string>
flagValue(int argc, char **argv, const char *name)
{
    const std::size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
            return std::string(argv[i + 1]);
        if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
            return std::string(argv[i] + len + 1);
    }
    return std::nullopt;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    try {
        return std::stoull(s, nullptr, 0);
    } catch (const std::exception &) {
        std::fprintf(stderr, "simfuzz: bad %s value '%s'\n", what,
                     s.c_str());
        std::exit(2);
    }
}

/** Replay one case sequentially and report verbosely; returns rc. */
int
replayOne(const FuzzCaseId &id, const FuzzOptions &opt)
{
    std::printf("replaying seed=0x%llx config=%u",
                static_cast<unsigned long long>(id.seed), id.config);
    for (const auto &[knob, value] : opt.pins.offDefault())
        std::printf(" %s=%s", knob->key, value.c_str());
    if (id.prefix != full_prefix)
        std::printf(" prefix=%zu", id.prefix);
    if (id.thread_mask != 0xffffffffu)
        std::printf(" mask=0x%x", id.thread_mask);
    if (opt.inject != InjectBug::None)
        std::printf(" inject=%s", injectBugName(opt.inject));
    std::printf("\n");

    const FuzzCaseResult r = runFuzzCase(id, opt, nullptr);
    if (r.ok()) {
        std::printf("PASS: %zu ops, all four modes clean\n",
                    r.total_ops);
        return 0;
    }
    for (const ModeFailure &f : r.failures)
        std::printf("FAIL [%s] %s\n", execModeName(f.mode),
                    f.what.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (hasFlag(argc, argv, "--help") || hasFlag(argc, argv, "-h")) {
        usage(argv[0]);
        return 0;
    }

    const SweepOptions sopt = sweepOptionsFromArgs(
        argc, argv,
        {{"--cases", true},         {"--master-seed", true},
         {"--configs", true},       {"--probe-every", true},
         {"--inject-bug", true},    {"--no-shrink", false},
         {"--max-failures", true},  {"--failure-dir", true},
         {"--replay-seed", true},   {"--replay-config", true},
         {"--replay-prefix", true}, {"--replay-mask", true},
         {"--replay-file", true}});

    FuzzOptions fopt;
    fopt.pins = sopt.knobs;
    std::uint64_t cases = 200;
    std::size_t max_failures = 4;
    bool shrink = !hasFlag(argc, argv, "--no-shrink");
    std::string failure_dir;

    if (const auto v = flagValue(argc, argv, "--cases"))
        cases = parseU64(*v, "--cases");
    if (const auto v = flagValue(argc, argv, "--master-seed"))
        fopt.master_seed = parseU64(*v, "--master-seed");
    if (const auto v = flagValue(argc, argv, "--configs"))
        fopt.num_configs =
            static_cast<unsigned>(parseU64(*v, "--configs"));
    if (const auto v = flagValue(argc, argv, "--probe-every"))
        fopt.probe_every = parseU64(*v, "--probe-every");
    if (const auto v = flagValue(argc, argv, "--max-failures"))
        max_failures =
            static_cast<std::size_t>(parseU64(*v, "--max-failures"));
    if (const auto v = flagValue(argc, argv, "--failure-dir"))
        failure_dir = *v;
    if (const auto v = flagValue(argc, argv, "--inject-bug")) {
        if (*v == "skip-unlock") {
            fopt.inject = InjectBug::SkipUnlock;
        } else if (*v == "skip-back-inval") {
            fopt.inject = InjectBug::SkipBackInval;
        } else {
            std::fprintf(stderr, "simfuzz: unknown --inject-bug '%s'\n",
                         v->c_str());
            return 2;
        }
    }
    if (fopt.num_configs == 0) {
        std::fprintf(stderr, "simfuzz: --configs must be >= 1\n");
        return 2;
    }

    // Replay modes run one case sequentially and exit.
    if (const auto file = flagValue(argc, argv, "--replay-file")) {
        std::ifstream in(*file);
        if (!in) {
            std::fprintf(stderr, "simfuzz: cannot open '%s'\n",
                         file->c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        FuzzCaseId id;
        if (!parseReplayFile(text.str(), id, fopt)) {
            std::fprintf(stderr, "simfuzz: malformed replay file '%s'\n",
                         file->c_str());
            return 2;
        }
        return replayOne(id, fopt);
    }
    if (const auto seed = flagValue(argc, argv, "--replay-seed")) {
        FuzzCaseId id;
        id.seed = parseU64(*seed, "--replay-seed");
        if (const auto v = flagValue(argc, argv, "--replay-config"))
            id.config =
                static_cast<unsigned>(parseU64(*v, "--replay-config"));
        if (const auto v = flagValue(argc, argv, "--replay-prefix"))
            id.prefix = static_cast<std::size_t>(
                parseU64(*v, "--replay-prefix"));
        if (const auto v = flagValue(argc, argv, "--replay-mask"))
            id.thread_mask = static_cast<std::uint32_t>(
                parseU64(*v, "--replay-mask"));
        return replayOne(id, fopt);
    }

    std::string pin_note;
    for (const auto &[knob, value] : fopt.pins.offDefault())
        pin_note += ", " + knob->flag().substr(2) + " " + value;
    std::printf("simfuzz: %llu case(s), %u fuzzed config(s), "
                "master seed %llu, probe every %llu "
                "event(s)%s%s%s\n",
                static_cast<unsigned long long>(cases),
                fopt.num_configs,
                static_cast<unsigned long long>(fopt.master_seed),
                static_cast<unsigned long long>(fopt.probe_every),
                fopt.inject != InjectBug::None ? ", inject " : "",
                fopt.inject != InjectBug::None
                    ? injectBugName(fopt.inject)
                    : "",
                pin_note.c_str());

    Sweep sweep;
    std::vector<FuzzCaseResult> results(cases);
    for (std::uint64_t i = 0; i < cases; ++i) {
        const FuzzCaseId id{caseSeed(fopt.master_seed, i),
                            static_cast<unsigned>(i % fopt.num_configs),
                            full_prefix, 0xffffffffu};
        std::ostringstream label;
        label << "case" << i << "/seed0x" << std::hex << id.seed
              << std::dec << "/cfg" << id.config;
        sweep.add(label.str(), [id, fopt, i, &results](JobCtx &ctx) {
            FuzzCaseResult r = runFuzzCase(id, fopt, &ctx);
            const bool ok = r.ok();
            const std::string what = r.summary(fopt);
            results[ctx.index()] = std::move(r);
            (void)i;
            if (!ok)
                throw std::runtime_error(what);
        });
    }

    const SweepReport report = sweep.run(sopt);

    // Collect failures in submission order (deterministic stdout).
    struct Failure
    {
        FuzzCaseId id;
        std::string what;
    };
    std::vector<Failure> failures;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const JobOutcome &out = report.outcomes[i];
        if (out.status == JobStatus::Ok ||
            out.status == JobStatus::Skipped) {
            continue;
        }
        if (!results[i].ok()) {
            failures.push_back(
                {results[i].id, results[i].summary(fopt)});
        } else {
            // Timed out before the case result was recorded.
            const FuzzCaseId id{
                caseSeed(fopt.master_seed, i),
                static_cast<unsigned>(i % fopt.num_configs),
                full_prefix, 0xffffffffu};
            failures.push_back({id, out.label + ": " + out.error});
        }
    }

    for (const Failure &f : failures)
        std::printf("FAIL %s\n", f.what.c_str());

    // Shrink (sequentially, so output stays deterministic).
    std::size_t shrunk = 0;
    for (const Failure &f : failures) {
        if (shrunk >= max_failures) {
            std::printf("(%zu further failure(s) left unshrunk)\n",
                        failures.size() - shrunk);
            break;
        }
        ++shrunk;
        FuzzCaseId min_id = f.id;
        if (shrink) {
            const FuzzCaseResult m = shrinkCase(f.id, fopt);
            if (!m.ok()) {
                min_id = m.id;
                std::printf("minimized: %s\n", m.summary(fopt).c_str());
            } else {
                std::printf("minimized: did not reproduce "
                            "sequentially (flaky?)\n");
            }
        }
        std::printf("  replay: %s\n",
                    replayCommand(min_id, fopt).c_str());
        if (!failure_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(failure_dir, ec);
            char name[64];
            std::snprintf(name, sizeof(name), "repro-%016llx.simfuzz",
                          static_cast<unsigned long long>(min_id.seed));
            const std::filesystem::path p =
                std::filesystem::path(failure_dir) / name;
            std::ofstream out(p);
            out << replayFileContents(min_id, fopt);
            std::printf("  reproducer written to %s\n",
                        p.string().c_str());
        }
    }

    std::printf("simfuzz: %zu ok, %zu failed, %zu timed out, "
                "%zu skipped\n",
                report.ok, report.failed, report.timed_out,
                report.skipped);
    std::fprintf(stderr, "simfuzz: finished in %.1fs\n",
                 report.wall_seconds);
    if (fopt.inject != InjectBug::None) {
        const bool caught = !failures.empty();
        std::printf("inject-bug %s: %s\n", injectBugName(fopt.inject),
                    caught ? "DETECTED (checker works)"
                           : "NOT DETECTED (checker is blind!)");
        return caught ? 0 : 1;
    }
    return report.clean() ? 0 : 1;
}
