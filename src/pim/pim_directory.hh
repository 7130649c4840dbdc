/**
 * @file
 * PIM directory: atomicity management for in-flight PEIs (paper
 * §4.3).
 *
 * A direct-mapped, tag-less table of reader-writer locks indexed by
 * the XOR-folded target block address.  False positives (two PEIs
 * with different targets sharing an entry) only serialize execution;
 * false negatives cannot happen because every PEI acquires the entry
 * its block folds to.  Grants are FIFO-fair per entry: a waiting
 * writer marks the entry non-readable, so later readers cannot
 * starve it (and vice versa).
 *
 * Entry count 0 selects the *ideal* directory used by the Ideal-Host
 * configuration and the §7.6 ablation: exact per-block tracking with
 * unlimited entries and zero access latency.
 */

#ifndef PEISIM_PIM_PIM_DIRECTORY_HH
#define PEISIM_PIM_PIM_DIRECTORY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitutil.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"

namespace pei
{

/** Reader-writer lock table guarding PEI atomicity. */
class PimDirectory
{
  public:
    using Callback = Continuation;

    /**
     * @param entries  number of direct-mapped entries (power of two),
     *                 or 0 for the ideal (exact, unlimited) directory.
     * @param access_latency  lookup latency in ticks (0 when ideal).
     */
    PimDirectory(EventQueue &eq, unsigned entries, Ticks access_latency,
                 StatRegistry &stats, const std::string &name = "pim_dir");

    /**
     * Register a writer PEI for pfence tracking *at issue time*,
     * before its directory acquisition (which may trail the issue by
     * a TLB-miss penalty or the PMU crossbar hop).  The matching
     * release() retires the writer, so pfence covers the whole
     * issue-to-retire pipeline.  Callers that pre-register must pass
     * writer_registered = true to acquire().
     */
    void registerWriter();

    /**
     * Acquire the lock covering @p block (a block address) for a
     * reader or writer PEI; @p granted fires (after the directory
     * access latency) once the PEI may execute atomically.
     * @p writer_registered marks a writer already counted in flight
     * via registerWriter().
     */
    void acquire(Addr block, bool writer, Callback granted,
                 bool writer_registered = false);

    /**
     * Release a previously granted acquisition; a writer's release
     * also retires it for pfence tracking.
     */
    void release(Addr block, bool writer);

    /**
     * pfence: @p done fires once every in-flight writer PEI issued
     * before this call has completed (all entries readable).
     */
    void pfence(Callback done);

    /** Directory access latency (exposed for the PMU's accounting). */
    Ticks accessLatency() const { return access_latency; }

    /** In-flight writer PEIs (granted or queued). */
    std::uint64_t inFlightWriters() const { return writers_in_flight; }

    /** Granted acquisitions / releases. */
    std::uint64_t acquires() const { return stat_acquires.value(); }
    std::uint64_t releases() const { return stat_releases.value(); }

    /** Acquisitions that had to wait behind a holder. */
    std::uint64_t conflicts() const { return stat_conflicts.value(); }

    /** Waits caused only by entry aliasing (different blocks). */
    std::uint64_t falseConflicts() const
    {
        return stat_false_conflicts.value();
    }

    /**
     * Fault injection for checker self-validation (simfuzz
     * --inject-bug skip-unlock): silently discard the @p nth call to
     * release() (1-based).  The holder keeps the entry forever, so a
     * correct checker must flag the run via the acquire/release
     * audit, the leaked-writer audit, or a deadlock.  0 disables.
     */
    void injectSkipRelease(std::uint64_t nth)
    {
        inject_skip_release = nth;
    }

    /**
     * Structural self-check for mid-simulation probes: verifies that
     * every entry's holder bookkeeping is consistent (a writer never
     * coexists with readers, the members match the grant and waiter
     * counts, and nobody waits behind a free entry).  Returns an
     * empty string when consistent, else a description of the first
     * violation.
     */
    std::string probeViolation() const;

  private:
    /** A PEI holding or waiting for an entry. */
    struct Member
    {
        Addr block;
        bool writer;
    };

    struct Entry
    {
        unsigned active_readers = 0;
        bool active_writer = false;
        /** Holders, then waiters, each in arrival order: grants are
         *  FIFO, so every holder arrived before every waiter. */
        std::vector<Member> members;
        EventQueue::WaitList queue; ///< the waiters' grant callbacks

        std::size_t holders() const { return active_readers + active_writer; }

        /** Count members[holders()] as a holder. */
        void
        hold(bool writer)
        {
            active_writer |= writer;
            active_readers += !writer;
        }
    };

    Entry &entryFor(Addr block);
    std::size_t indexOf(Addr block) const;
    void drainEntry(Entry &e);
    void writerDone();

    EventQueue &eq;
    unsigned num_entries; ///< 0 = ideal
    unsigned index_bits = 0;
    Ticks access_latency;

    std::vector<Entry> entries;                 ///< real mode
    std::unordered_map<Addr, Entry> ideal_map;  ///< ideal mode

    std::uint64_t writers_in_flight = 0;
    EventQueue::WaitList pfence_waiters;

    std::uint64_t inject_skip_release = 0; ///< 0 = no fault injection
    std::uint64_t release_calls = 0;       ///< release() invocations

    Counter stat_acquires;
    Counter stat_releases;
    Counter stat_conflicts;
    Counter stat_false_conflicts;
    Counter stat_pfences;
};

} // namespace pei

#endif // PEISIM_PIM_PIM_DIRECTORY_HH
