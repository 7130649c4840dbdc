/**
 * @file
 * The coherence-policy seam between the PMU and the cache hierarchy.
 *
 * Fig. 5 step ③ of the paper hard-wires eager per-operation
 * coherence: every memory-side writer PEI back-invalidates its
 * target block and every reader back-writebacks it before the
 * offload leaves the chip.  A CoherencePolicy owns that step, so the
 * eager baseline and LazyPIM-style batched speculation (compressed
 * read/write signatures, commit-time conflict detection, rollback)
 * plug into the same PMU pipeline behind `--coherence`.
 *
 * Policies are a timing/traffic model only: functional PEI execution
 * (executePeiFunctional against VirtualMemory) happens exactly once
 * regardless of policy, which is why the sequential golden model
 * stays the differential-testing oracle — architectural results must
 * be policy-invariant while timing and coherence traffic move.
 *
 * Like memory backends (mem/backend.hh), implementations live in a
 * mutex-guarded factory registry keyed by name ("eager" | "lazy").
 */

#ifndef PEISIM_COHERENCE_POLICY_HH
#define PEISIM_COHERENCE_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/pim_iface.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"

namespace pei
{

class CacheHierarchy;

/** Coherence-policy configuration (part of PimConfig). */
struct CoherenceConfig
{
    /** Registry key of the policy ("eager" | "lazy"). */
    std::string policy = "eager";

    /** Bloom bits per read/write signature (lazy; power of two). */
    unsigned signature_bits = 256;

    /** Offloaded PEIs per speculative batch before it closes (lazy). */
    unsigned batch_peis = 16;

    /** Signature-insert latency charged per offload (lazy). */
    Ticks insert_latency = 1;

    /** Batch-close → commit latency: signature transfer + check (lazy). */
    Ticks commit_latency = 24;

    /** Re-execution stall per rolled-back PEI on a conflict (lazy). */
    Ticks rollback_penalty = 64;
};

/**
 * One coherence policy instance, owned by the PMU.  All hooks run on
 * the System's one event queue, so implementations need no
 * synchronization of their own.
 */
class CoherencePolicy
{
  public:
    using Callback = Continuation;

    virtual ~CoherencePolicy() = default;

    virtual const char *name() const = 0;

    /**
     * True for policies that defer the coherence action past the
     * offload (lazy): the eager offload-window probes — "a writer
     * PEI's target stays uncached until it retires" — do not apply.
     */
    virtual bool deferred() const { return false; }

    /**
     * Fig. 5 step ③: called once per memory-side PEI offload, before
     * the packet leaves for the vault.  @p ready must eventually fire
     * (on the owning event queue) to let the offload proceed.
     * Returns a retirement token the PMU hands back to onRetire().
     */
    virtual std::uint32_t beforeOffload(const PimPacket &pkt,
                                        Callback ready) = 0;

    /**
     * Batched variant for the PMU coalescing window: one coherence
     * action covers the whole same-vault train.  @p ready fires once
     * when the merged action completes; tokens[i] receives packet
     * i's retirement token (each still retires individually through
     * onRetire).  The default implementation fans out to per-packet
     * beforeOffload calls joined on @p ready; policies override to
     * genuinely merge (eager: one dedup'd back-inval/-writeback set,
     * lazy: the train enters one speculative batch atomically).
     */
    virtual void beforeOffloadBatch(const PimPacket *const *pkts,
                                    unsigned n, Callback ready,
                                    std::uint32_t *tokens);

    /** The memory-side PEI identified by @p token retired. */
    virtual void onRetire(std::uint32_t token) = 0;

    /** pfence boundary: close any open speculative batch. */
    virtual void onFence() {}

    /**
     * Structural self-check for mid-simulation probes (simfuzz):
     * first violated internal invariant, or empty when clean.
     */
    virtual std::string probeViolation() const { return ""; }

    /**
     * Fault injection for checker self-validation (simfuzz
     * --inject-bug skip-conflict-check): the @p nth commit (1-based)
     * skips conflict detection, so a correct checker must flag the
     * run via the `conflicts >= exact_conflicts` audit.  No-op on
     * policies without a conflict check.  0 disables.
     */
    virtual void injectSkipConflictCheck(std::uint64_t) {}
};

/**
 * Heap-allocated fan-in for merged coherence actions: create() a join
 * for @p n sub-actions, hand each one arm(); @p done fires after the
 * last arm completes and the join frees itself.  Each arm captures
 * only the join pointer, so it fits any Continuation inline budget.
 */
struct CoherenceJoin
{
    unsigned remaining;
    Continuation done;

    static CoherenceJoin *
    create(unsigned n, Continuation done)
    {
        return new CoherenceJoin{n, std::move(done)};
    }

    Continuation
    arm()
    {
        CoherenceJoin *j = this;
        return Continuation([j] {
            if (--j->remaining > 0)
                return;
            Continuation cb = std::move(j->done);
            delete j;
            cb();
        });
    }
};

/** Factory signature for registry entries. */
using CoherenceFactory = std::unique_ptr<CoherencePolicy> (*)(
    EventQueue &, CacheHierarchy &, const CoherenceConfig &,
    StatRegistry &);

/**
 * Register a policy under @p name (guarded registry; the built-in
 * policies self-register on first registry use).
 */
void registerCoherencePolicy(const std::string &name,
                             CoherenceFactory factory);

/** Registered policy names, sorted (CLI validation / help text). */
std::vector<std::string> coherencePolicyNames();

/** Instantiate the policy registered under @p name (fatal if none). */
std::unique_ptr<CoherencePolicy> createCoherencePolicy(
    const std::string &name, EventQueue &eq, CacheHierarchy &hierarchy,
    const CoherenceConfig &cfg, StatRegistry &stats);

} // namespace pei

#endif // PEISIM_COHERENCE_POLICY_HH
