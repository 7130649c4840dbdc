#include "ideal_mem.hh"

#include "common/logging.hh"

namespace pei
{

void
IdealPort::accessBlock(Addr paddr, bool is_write, Callback cb)
{
#ifndef NDEBUG
    (void)owner.map.decode(paddr); // bounds check only
#else
    (void)paddr;
#endif
    if (is_write)
        ++owner.stat_writes;
    else
        ++owner.stat_reads;
    if (cb)
        owner.eq.schedule(owner.t_access, std::move(cb));
}

IdealBackend::IdealBackend(EventQueue &eq, const IdealMemConfig &cfg,
                           StatRegistry &stats, std::uint64_t phys_bytes)
    : eq(eq), cfg(cfg),
      map(1, cfg.pim_units, cfg.banks_per_unit, cfg.row_bytes, phys_bytes)
{
    t_access = nsToTicks(cfg.latency_ns);
    t_pim = nsToTicks(cfg.pim_latency_ns);
    ports.reserve(cfg.pim_units);
    for (unsigned u = 0; u < cfg.pim_units; ++u)
        ports.push_back(std::make_unique<IdealPort>(*this, u));
    pim_handlers.assign(cfg.pim_units, nullptr);

    stats.add("ideal.reads", &stat_reads);
    stats.add("ideal.writes", &stat_writes);
    stats.add("ideal.pim_ops", &stat_pim_ops);
}

void
IdealBackend::readBlock(Addr paddr, Callback cb)
{
#ifndef NDEBUG
    (void)map.decode(paddr); // bounds check only
#else
    (void)paddr;
#endif
    ++stat_reads;
    eq.schedule(t_access, std::move(cb));
}

void
IdealBackend::writeBlock(Addr paddr, Callback cb)
{
#ifndef NDEBUG
    (void)map.decode(paddr); // bounds check only
#else
    (void)paddr;
#endif
    ++stat_writes;
    if (cb)
        eq.schedule(t_access, std::move(cb));
}

void
IdealBackend::attachPimHandler(unsigned unit, PimHandler *handler)
{
    panic_if(unit >= pim_handlers.size(), "PIM unit index %u out of range",
             unit);
    pim_handlers[unit] = handler;
}

void
IdealBackend::sendPim(PimPacket pkt, PimHandler::Respond cb)
{
    ++stat_pim_ops;
    const MemLoc loc = map.decode(pkt.paddr);
    const unsigned unit = loc.globalVault;
    panic_if(pim_handlers[unit] == nullptr,
             "PIM operation sent to unit %u with no PCU attached", unit);
    const std::uint32_t txn =
        pim_txns.emplace(PimTxn{std::move(pkt), std::move(cb)});
    eq.schedule(t_pim, [this, txn, unit] { pimArrived(txn, unit); });
}

void
IdealBackend::pimArrived(std::uint32_t txn, unsigned unit)
{
    PimTxn &t = pim_txns[txn];
    pim_handlers[unit]->handle(std::move(t.pkt), [this, txn](PimPacket done) {
        pim_txns[txn].pkt = std::move(done); // park the response
        eq.schedule(t_pim, [this, txn] { pimRespond(txn); });
    });
}

void
IdealBackend::pimRespond(std::uint32_t txn)
{
    PimTxn &t = pim_txns[txn];
    PimHandler::Respond cb = std::move(t.cb);
    PimPacket done = std::move(t.pkt);
    pim_txns.erase(txn);
    cb(std::move(done));
}

} // namespace pei
