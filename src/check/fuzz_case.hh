/**
 * @file
 * simfuzz case runner: one *case* = one generated program executed
 * under all four execution modes (Host-Only / PIM-Only / Ideal-Host
 * / Locality-Aware) on one fuzzed SystemConfig, with mid-simulation
 * invariant probes armed, and cross-checked against the sequential
 * golden model (final footprint bytes + every reader-PEI output).
 *
 * Failures are shrunk deterministically: a minimized case is the
 * triple (seed, prefix-length, thread-mask) — never a mutated
 * stream — so the printed reproducer replays byte-stable anywhere.
 */

#ifndef PEISIM_CHECK_FUZZ_CASE_HH
#define PEISIM_CHECK_FUZZ_CASE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/program.hh"
#include "driver/job.hh"
#include "runtime/knobs.hh"
#include "runtime/system.hh"

namespace pei
{
namespace fuzz
{

/** Replayable identity of one fuzz case. */
struct FuzzCaseId
{
    std::uint64_t seed = 0;  ///< program seed
    unsigned config = 0;     ///< fuzzed-config index
    std::size_t prefix = full_prefix;
    std::uint32_t thread_mask = 0xffffffffu;
};

/** Hidden fault injections validating the checker itself. */
enum class InjectBug
{
    None,
    SkipUnlock,    ///< PimDirectory skips its first release()
    SkipBackInval, ///< CacheHierarchy skips its first back-invalidation
};

const char *injectBugName(InjectBug b);

/** Checker-wide options shared by every case of a run. */
struct FuzzOptions
{
    std::uint64_t master_seed = 12345;
    unsigned num_configs = 4;     ///< fuzzed SystemConfigs in rotation
    std::uint64_t probe_every = 64; ///< probe cadence in events
    InjectBug inject = InjectBug::None;
    /** Knobs pinned for every case; the rest are fuzzed per config. */
    KnobSet pins;
};

/** One mode's divergence/violation. */
struct ModeFailure
{
    ExecMode mode = ExecMode::HostOnly;
    std::string what;
};

struct FuzzCaseResult
{
    FuzzCaseId id;
    std::size_t total_ops = 0; ///< ops across included threads
    std::vector<ModeFailure> failures;

    bool ok() const { return failures.empty(); }

    /**
     * One-line description of the first failure (empty when ok),
     * naming the case's off-default knobs under @p opt.
     */
    std::string summary(const FuzzOptions &opt) const;
};

/** Program seed of case @p case_index under @p master_seed. */
std::uint64_t caseSeed(std::uint64_t master_seed,
                       std::uint64_t case_index);

/**
 * The @p config_index-th fuzzed SystemConfig: SystemConfig::scaled
 * shrunk for speed, with cores, cache geometry, vault count,
 * directory size, operand-buffer entries, issue window, balanced
 * dispatch, and memory backend perturbed within legal ranges,
 * deterministically from @p master_seed.
 */
SystemConfig fuzzConfig(unsigned config_index, std::uint64_t master_seed,
                        ExecMode mode);

/**
 * The machine case @p id runs on under @p mode: the fuzzed config
 * with @p opt's pins applied.
 */
SystemConfig caseConfig(const FuzzCaseId &id, const FuzzOptions &opt,
                        ExecMode mode);

/**
 * Run one case under all four modes.  Divergences and invariant
 * violations are collected per mode in the result; SimulationStopped
 * (watchdog cancellation via @p ctx) propagates.  @p ctx may be null
 * (shrink trials rely on the deterministic event budget instead).
 */
FuzzCaseResult runFuzzCase(const FuzzCaseId &id, const FuzzOptions &opt,
                           JobCtx *ctx = nullptr);

/**
 * Minimize @p failing: repeatedly halve the prefix and drop threads
 * while the case still fails, to a fixpoint (bounded by
 * @p max_trials re-runs).  Returns the result of the smallest still-
 * failing case.
 */
FuzzCaseResult shrinkCase(const FuzzCaseId &failing,
                          const FuzzOptions &opt,
                          std::size_t max_trials = 64);

/**
 * Serialize a reproducer (parse with parseReplayFile).  It records
 * every knob's value in the case's config, so parsing it back pins
 * them all.
 */
std::string replayFileContents(const FuzzCaseId &id,
                               const FuzzOptions &opt);

/**
 * Parse @p text (key=value lines, '#' comments) into @p id/@p opt;
 * knob lines become pins.  Returns false on malformed input.
 */
bool parseReplayFile(const std::string &text, FuzzCaseId &id,
                     FuzzOptions &opt);

/**
 * The `simfuzz --replay-seed ...` invocation reproducing @p id; like
 * the reproducer file, it pins every knob with its ordinary flag.
 */
std::string replayCommand(const FuzzCaseId &id, const FuzzOptions &opt);

} // namespace fuzz
} // namespace pei

#endif // PEISIM_CHECK_FUZZ_CASE_HH
