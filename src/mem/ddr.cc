#include "ddr.hh"

#include "common/logging.hh"

namespace pei
{

namespace
{

DramTiming
channelTiming(const DdrConfig &cfg)
{
    DramTiming t;
    t.bank_groups = cfg.bank_groups;
    t.banks_per_group = cfg.banks_per_group;
    t.cl = nsToTicks(cfg.tCL_ns);
    t.rcd = nsToTicks(cfg.tRCD_ns);
    t.rp = nsToTicks(cfg.tRP_ns);
    t.ras = nsToTicks(cfg.tRAS_ns);
    t.rrd_s = nsToTicks(cfg.tRRD_S_ns);
    t.rrd_l = nsToTicks(cfg.tRRD_L_ns);
    t.faw = nsToTicks(cfg.tFAW_ns);
    t.refi = nsToTicks(cfg.tREFI_ns);
    t.rfc = nsToTicks(cfg.tRFC_ns);
    // Burst: one cache block over the channel's data bus.
    t.burst = nsToTicks(static_cast<double>(block_size) / cfg.chan_gbps);
    t.write_queue = true;
    t.write_drain_low = cfg.write_drain_low;
    t.write_drain_high = cfg.write_drain_high;
    return t;
}

} // namespace

DdrChannel::DdrChannel(EventQueue &eq, const DdrConfig &cfg,
                       const AddrMap &map, unsigned chan_id,
                       StatRegistry &stats)
    : DramController(eq, channelTiming(cfg), map, "chan", chan_id, stats)
{}

DdrBackend::DdrBackend(EventQueue &eq, const DdrConfig &cfg,
                       StatRegistry &stats, std::uint64_t phys_bytes)
    : eq(eq),
      map(1, cfg.channels, cfg.bank_groups * cfg.banks_per_group,
          cfg.row_bytes, phys_bytes)
{
    channels.reserve(cfg.channels);
    for (unsigned c = 0; c < cfg.channels; ++c)
        channels.push_back(
            std::make_unique<DdrChannel>(eq, cfg, map, c, stats));

    stats.add("ddr.reads", &stat_reads);
    stats.add("ddr.writes", &stat_writes);
    stats.add("ddr.read_ticks", &hist_read_ticks);
}

void
DdrBackend::readBlock(Addr paddr, Callback cb)
{
    ++stat_reads;
    const MemLoc loc = map.decode(paddr);
    const std::uint32_t txn =
        read_txns.emplace(ReadTxn{eq.now(), std::move(cb)});
    channels[loc.globalVault]->accessBlock(paddr, false,
                                           [this, txn] { readDone(txn); });
}

void
DdrBackend::readDone(std::uint32_t txn)
{
    ReadTxn &t = read_txns[txn];
    hist_read_ticks.record(eq.now() - t.issued);
    Callback cb = std::move(t.cb);
    read_txns.erase(txn);
    if (cb)
        cb();
}

void
DdrBackend::writeBlock(Addr paddr, Callback cb)
{
    ++stat_writes;
    // A null cb passes straight through: the channel then schedules
    // no completion event.
    channels[map.decode(paddr).globalVault]->accessBlock(paddr, true,
                                                         std::move(cb));
}

MemPort &
DdrBackend::pimUnitPort(unsigned unit)
{
    panic("ddr backend has no PIM unit %u", unit);
}

void
DdrBackend::attachPimHandler(unsigned unit, PimHandler *)
{
    panic("cannot attach a PCU to non-PIM ddr backend (unit %u)", unit);
}

void
DdrBackend::sendPim(PimPacket, PimHandler::Respond)
{
    panic("PIM operation dispatched to non-PIM ddr backend");
}

std::uint64_t
DdrBackend::memReads() const
{
    std::uint64_t n = 0;
    for (const auto &c : channels)
        n += c->reads();
    return n;
}

std::uint64_t
DdrBackend::memWrites() const
{
    std::uint64_t n = 0;
    for (const auto &c : channels)
        n += c->writes();
    return n;
}

} // namespace pei
