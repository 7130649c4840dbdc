/**
 * @file
 * PEI Computation Units (paper §4.2).
 *
 * Every PCU pairs an operand buffer (a small SRAM tracking in-flight
 * PEIs; memory accesses of buffered PEIs overlap, giving PEI-level
 * memory parallelism) with computation logic shared by all buffered
 * PEIs (configurable issue width; PEIs execute serially per port).
 *
 * Host-side PCUs (one per core, 4 GHz) execute PEIs through their
 * core's L1 cache; memory-side PCUs (one per vault, 2 GHz) implement
 * the PimHandler interface and access DRAM through their vault.
 */

#ifndef PEISIM_PIM_PCU_HH
#define PEISIM_PIM_PCU_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backend.hh"
#include "mem/pim_iface.hh"
#include "mem/vmem.hh"
#include "pim/pei_op.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** PCU configuration. */
struct PcuConfig
{
    unsigned operand_buffer_entries = 4;
    unsigned issue_width = 1;
    std::uint64_t host_mhz = 4000; ///< host-side PCU clock
    std::uint64_t mem_mhz = 2000;  ///< memory-side PCU clock

    bool operator==(const PcuConfig &) const = default;
};

/**
 * The shared PCU mechanics: operand-buffer slot management and
 * serialized computation logic.
 */
class Pcu
{
  public:
    using Callback = Continuation;

    Pcu(EventQueue &eq, const std::string &name, unsigned entries,
        unsigned issue_width, std::uint64_t mhz, StatRegistry &stats);

    /**
     * Allocate an operand-buffer entry; @p then fires once one is
     * available (PEIs stall on a full buffer, paper §4.2).  A waiter
     * records its buffer wait when it runs, in the tick
     * releaseEntry() hands it the entry.
     */
    template <typename F>
    void
    acquireEntry(F then)
    {
        if (in_use < capacity) {
            ++in_use;
            ++stat_entry_acquires;
            hist_buffer_wait.record(0);
            then();
            return;
        }
        ++stat_buffer_stalls;
        eq.park(entry_waiters, [this, asked = eq.now(), then]() mutable {
            hist_buffer_wait.record(eq.now() - asked);
            then();
        });
    }

    /** Free an operand-buffer entry. */
    void releaseEntry();

    /**
     * Occupy one computation port for @p cycles PCU-clock cycles;
     * @p done fires when the computation retires.
     */
    void compute(unsigned cycles, Callback done);

    unsigned entriesInUse() const { return in_use; }
    unsigned bufferCapacity() const { return capacity; }
    std::uint64_t executed() const { return stat_executed.value(); }

  private:
    EventQueue &eq;
    unsigned capacity;
    std::uint64_t mhz;

    unsigned in_use = 0;
    EventQueue::WaitList entry_waiters; ///< queued for an entry
    std::vector<Tick> port_free_at; ///< one per issue-width port

    Counter stat_executed;
    Counter stat_buffer_stalls;
    Counter stat_entry_acquires;
    Counter stat_entry_releases;
    Histogram hist_buffer_wait; ///< acquireEntry request → grant
};

/**
 * Memory-side PCU: one per PIM unit, attached to the memory backend
 * as the unit's PimHandler and reaching DRAM through the unit's
 * MemPort.  Execution sequence per packet: allocate an operand-buffer
 * entry, read the target block from DRAM (reads of distinct in-flight
 * PEIs overlap), compute, write the block back for writer PEIs,
 * respond.
 */
class MemSidePcu : public PimHandler
{
  public:
    MemSidePcu(EventQueue &eq, const PcuConfig &cfg, MemPort &port,
               VirtualMemory &vm, StatRegistry &stats);

    void handle(PimPacket pkt, Respond respond) override;

    Pcu &pcu() { return logic; }

  private:
    /** One in-flight PIM operation: packet + responder parked in a
     *  pooled record so stage events capture only `{this, handle}`. */
    struct OpTxn
    {
        PimPacket pkt;
        Respond respond;
        Tick read_start = 0;
    };

    void entryGranted(std::uint32_t txn);
    void readDone(std::uint32_t txn);
    void computed(std::uint32_t txn);
    void respondNow(std::uint32_t txn);

    EventQueue &eq;
    MemPort &port;
    VirtualMemory &vm;
    Pcu logic;
    SlotPool<OpTxn> ops;

    Counter stat_ops;
    Histogram hist_dram_ticks; ///< target-block DRAM read latency
};

} // namespace pei

#endif // PEISIM_PIM_PCU_HH
