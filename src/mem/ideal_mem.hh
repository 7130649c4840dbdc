/**
 * @file
 * Ideal main memory backend: every block access completes after a
 * fixed latency with infinite bandwidth, and PIM operations reach
 * their unit after a (smaller) fixed latency.  Useful as an upper
 * bound ("what if memory were free?") and as a fast substrate for
 * differential testing — architectural results must match the timed
 * backends exactly while every queueing effect disappears.
 */

#ifndef PEISIM_MEM_IDEAL_HH
#define PEISIM_MEM_IDEAL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "mem/pim_iface.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Knobs of the ideal backend. */
struct IdealMemConfig
{
    double latency_ns = 50.0;    ///< flat block access latency
    double pim_latency_ns = 10.0; ///< one-way PIM dispatch latency
    unsigned pim_units = 16;     ///< PIM sites (power of 2)
    unsigned banks_per_unit = 16;   ///< address-map geometry only
    std::uint64_t row_bytes = 8192; ///< address-map geometry only

    bool operator==(const IdealMemConfig &) const = default;
};

class IdealBackend;

/** Fixed-latency DRAM port of one ideal PIM unit. */
class IdealPort : public MemPort
{
  public:
    IdealPort(IdealBackend &owner, unsigned unit)
        : owner(owner), unit(unit)
    {}

    void accessBlock(Addr paddr, bool is_write, Callback cb) override;

    unsigned globalId() const override { return unit; }

  private:
    IdealBackend &owner;
    unsigned unit;
};

/**
 * The ideal backend: no queues, no links, no banks.  PIM capability
 * is retained (one unit per address-map "vault") so locality-aware
 * dispatch remains exercisable on top of flat timing.
 */
class IdealBackend : public MemoryBackend
{
  public:
    using Callback = Continuation;

    IdealBackend(EventQueue &eq, const IdealMemConfig &cfg,
                 StatRegistry &stats, std::uint64_t phys_bytes = 0);

    const char *kind() const override { return "ideal"; }

    void readBlock(Addr paddr, Callback cb) override;
    void writeBlock(Addr paddr, Callback cb = nullptr) override;

    static constexpr bool pim_capable = true;
    bool supportsPim() const override { return pim_capable; }
    unsigned pimUnits() const override
    {
        return static_cast<unsigned>(ports.size());
    }
    MemPort &pimUnitPort(unsigned unit) override { return *ports[unit]; }
    void attachPimHandler(unsigned unit, PimHandler *handler) override;
    void sendPim(PimPacket pkt, PimHandler::Respond cb) override;

    const AddrMap &addrMap() const override { return map; }

    std::uint64_t memReads() const override { return stat_reads.value(); }
    std::uint64_t memWrites() const override
    {
        return stat_writes.value();
    }

  private:
    friend class IdealPort;

    struct PimTxn
    {
        PimPacket pkt; ///< request in flight; reused for the response
        PimHandler::Respond cb;
    };

    void pimArrived(std::uint32_t txn, unsigned unit);
    void pimRespond(std::uint32_t txn);

    EventQueue &eq;
    IdealMemConfig cfg;
    AddrMap map;
    Ticks t_access;
    Ticks t_pim;
    std::vector<std::unique_ptr<IdealPort>> ports;
    std::vector<PimHandler *> pim_handlers;
    SlotPool<PimTxn> pim_txns;

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_pim_ops;
};

} // namespace pei

#endif // PEISIM_MEM_IDEAL_HH
