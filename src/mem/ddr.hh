/**
 * @file
 * Conventional DDR4-style main memory backend: a few channels of
 * ranked, bank-grouped DRAM behind per-channel FR-FCFS controllers
 * (modelled after the structure of DRAMsim3-class simulators).
 *
 * Unlike the HMC backend there is no logic die, so the backend
 * reports no PIM capability: the PMU degrades every PEI to host-side
 * execution, which is exactly the paper's "Host-Only" substrate on
 * commodity memory.  Each channel is the DRAM controller of
 * mem/dram.hh with the inter-command constraints an HMC vault goes
 * without: tRAS before precharge, tRRD_S/tRRD_L between activates,
 * the rolling four-activate tFAW window, and periodic tREFI/tRFC
 * refresh.
 */

#ifndef PEISIM_MEM_DDR_HH
#define PEISIM_MEM_DDR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "mem/dram.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Timing/geometry knobs of the DDR backend (DDR4-2400-flavoured). */
struct DdrConfig
{
    unsigned channels = 4;        ///< independent channels (power of 2)
    unsigned bank_groups = 4;     ///< bank groups per channel
    unsigned banks_per_group = 4; ///< banks per bank group
    std::uint64_t row_bytes = 8192;

    double tCL_ns = 13.75;   ///< column access latency
    double tRCD_ns = 13.75;  ///< row activate latency
    double tRP_ns = 13.75;   ///< precharge latency
    double tRAS_ns = 32.0;   ///< min row-open time before precharge
    double tRRD_S_ns = 3.3;  ///< activate-to-activate, other group
    double tRRD_L_ns = 4.9;  ///< activate-to-activate, same group
    double tFAW_ns = 25.0;   ///< rolling four-activate window
    double tREFI_ns = 7800.0; ///< refresh interval
    double tRFC_ns = 350.0;  ///< refresh cycle time (all banks busy)

    /** Per-channel data-bus bandwidth, GB/s (DDR4-2400 x64). */
    double chan_gbps = 19.2;

    /** Write-queue drain hysteresis: drain from high down to low. */
    unsigned write_drain_low = 8;
    unsigned write_drain_high = 24;

    bool operator==(const DdrConfig &) const = default;
};

/**
 * One DDR channel: the DRAM controller with every DDR4 constraint —
 * tRAS, tRRD_S/tRRD_L/tFAW activate limits, tREFI/tRFC refresh, and
 * a write queue drained with hysteresis (reads have priority until
 * the write queue reaches the high watermark, then writes drain down
 * to the low watermark; writes are also issued opportunistically
 * whenever no read is waiting).
 */
class DdrChannel : public DramController
{
  public:
    DdrChannel(EventQueue &eq, const DdrConfig &cfg, const AddrMap &map,
               unsigned chan_id, StatRegistry &stats);
};

/**
 * The channel-interleaved backend: decodes block addresses onto
 * channels (reusing the low-order interleave of AddrMap with one
 * "cube" and channels in the vault field) and exposes the aggregate
 * stats the driver and energy model consume.
 */
class DdrBackend : public MemoryBackend
{
  public:
    using Callback = Continuation;

    DdrBackend(EventQueue &eq, const DdrConfig &cfg, StatRegistry &stats,
               std::uint64_t phys_bytes = 0);

    const char *kind() const override { return "ddr"; }

    void readBlock(Addr paddr, Callback cb) override;
    void writeBlock(Addr paddr, Callback cb = nullptr) override;

    static constexpr bool pim_capable = false;
    bool supportsPim() const override { return pim_capable; }
    unsigned pimUnits() const override { return 0; }
    MemPort &pimUnitPort(unsigned unit) override;
    void attachPimHandler(unsigned unit, PimHandler *handler) override;
    void sendPim(PimPacket pkt, PimHandler::Respond cb) override;

    const AddrMap &addrMap() const override { return map; }

    std::uint64_t memReads() const override;
    std::uint64_t memWrites() const override;

  private:
    struct ReadTxn
    {
        Tick issued;
        Callback cb;
    };

    void readDone(std::uint32_t txn);

    EventQueue &eq;
    AddrMap map;
    std::vector<std::unique_ptr<DdrChannel>> channels;
    SlotPool<ReadTxn> read_txns;

    Counter stat_reads;
    Counter stat_writes;
    Histogram hist_read_ticks; ///< demand read round trip
};

} // namespace pei

#endif // PEISIM_MEM_DDR_HH
