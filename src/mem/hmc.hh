/**
 * @file
 * HMC main memory: cubes of vaults behind a packetized off-chip
 * interconnect (net/interconnect.hh) with separate request and
 * response channels, the paper's Table 2 daisy chain (8 HMCs,
 * 80 GB/s full-duplex).
 *
 * Link cost model follows the paper's footnote 7: a memory read
 * consumes 16 B of request and 80 B of response bandwidth; a write
 * consumes 80 B of request bandwidth.  PIM operations consume
 * 16 B + input operands (request) and 16 B + output operands
 * (response).
 */

#ifndef PEISIM_MEM_HMC_HH
#define PEISIM_MEM_HMC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "mem/dram.hh"
#include "mem/pim_iface.hh"
#include "net/interconnect.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Main memory geometry. */
struct HmcConfig
{
    unsigned num_cubes = 8;
    unsigned vaults_per_cube = 16;
    DramConfig dram;
    HmcLinkConfig link;

    bool operator==(const HmcConfig &) const = default;
};

/**
 * Host-side HMC controller: routes read/write/PIM packets over the
 * request link to the owning cube/vault and returns responses over
 * the response link.  Owns all vaults of all cubes (they are its PIM
 * units) and the address map decoding into them.
 */
class HmcBackend : public MemoryBackend
{
  public:
    using Callback = Continuation;

    HmcBackend(EventQueue &eq, const HmcConfig &cfg, StatRegistry &stats,
               std::uint64_t phys_bytes = 0);

    const char *kind() const override { return "hmc"; }

    /** Fetch the block containing @p paddr; @p cb fires on arrival. */
    void readBlock(Addr paddr, Callback cb) override;

    /** Write back the block containing @p paddr; @p cb optional. */
    void writeBlock(Addr paddr, Callback cb = nullptr) override;

    /**
     * Dispatch a PIM operation to the vault owning its target block;
     * @p cb receives the completed packet (output operands filled).
     */
    void sendPim(PimPacket pkt, PimHandler::Respond cb) override;

    /**
     * Dispatch a coalesced same-vault PEI train: one compound request
     * packet (8 B train header + 4 B sub-header + input operands per
     * member) rides the request link, members execute at the vault
     * PCU individually, and the completions merge into one response
     * train (16 B header + 4 B sub-header + output operands per
     * output-bearing member) or a posted ack when no member carries
     * output.  Counted as n ops in hmc.pim_ops with n round trips, so
     * the existing conservation invariant covers trains too.
     */
    void sendPimTrain(PimPacket *pkts, unsigned n,
                      PimHandler::Respond *cbs) override;

    /** Register the memory-side PCU serving @p global_vault. */
    void attachPimHandler(unsigned global_vault,
                          PimHandler *handler) override;

    static constexpr bool pim_capable = true;
    bool supportsPim() const override { return pim_capable; }
    unsigned pimUnits() const override { return totalVaults(); }
    MemPort &pimUnitPort(unsigned unit) override { return *vaults[unit]; }

    const AddrMap &addrMap() const override { return map; }

    unsigned totalVaults() const { return static_cast<unsigned>(vaults.size()); }

    std::uint64_t memReads() const override;
    std::uint64_t memWrites() const override;

    /** EMA of request-link flits (balanced dispatch input). */
    double emaRequestFlits() override { return net.emaRequestFlits(); }

    /** EMA of response-link flits (balanced dispatch input). */
    double emaResponseFlits() override { return net.emaResponseFlits(); }

    /** Raw per-direction off-chip byte counters (injected traffic,
     *  counted once per packet). */
    std::uint64_t requestBytes() const override { return net.requestBytes(); }
    std::uint64_t responseBytes() const override { return net.responseBytes(); }

    /** Raw per-direction off-chip flit counters (probe hooks). */
    std::uint64_t requestFlits() const override { return net.requestFlits(); }
    std::uint64_t responseFlits() const override { return net.responseFlits(); }

  private:
    /**
     * In-flight transaction records.  The continuation/packet state
     * that used to ride inside nested closures is parked here so the
     * per-stage events capture only `{this, handle}` (within
     * Continuation's inline budget) and the steady state allocates
     * nothing: slots recycle through the pools' freelists.
     */
    struct ReadTxn
    {
        MemLoc loc;
        Tick issued;
        Callback cb;
    };

    struct WriteTxn
    {
        Callback cb;
    };

    struct PimTxn
    {
        MemLoc loc;
        Tick issued;
        PimPacket pkt; ///< request in flight; reused for the response
        PimHandler::Respond cb;
    };

    struct TrainTxn
    {
        MemLoc loc;
        Tick issued;
        unsigned n = 0;
        unsigned remaining = 0;
        std::vector<PimPacket> pkts; ///< requests; reused for responses
        std::vector<PimHandler::Respond> cbs;
    };

    // Stage handlers, one per latency edge of the old closure chain.
    void readDone(std::uint32_t txn);
    void writeDone(std::uint32_t txn);
    void pimDone(std::uint32_t txn);
    void pimRespond(std::uint32_t txn);
    void trainMemberDone(std::uint32_t txn);
    void trainRespond(std::uint32_t txn);

    EventQueue &eq;
    AddrMap map;
    Interconnect net;
    std::vector<std::unique_ptr<Vault>> vaults;
    std::vector<PimHandler *> pim_handlers;
    SlotPool<ReadTxn> read_txns;
    SlotPool<WriteTxn> write_txns;
    SlotPool<PimTxn> pim_txns;
    SlotPool<TrainTxn> train_txns;

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_pim_ops;
    Histogram hist_read_ticks;          ///< demand read round trip
    Histogram hist_pim_roundtrip_ticks; ///< PIM dispatch round trip
};

} // namespace pei

#endif // PEISIM_MEM_HMC_HH
