#include "hmc.hh"

#include "common/logging.hh"

namespace pei
{

HmcBackend::HmcBackend(EventQueue &eq, const HmcConfig &cfg,
                       StatRegistry &stats, std::uint64_t phys_bytes)
    : eq(eq),
      map(cfg.num_cubes, cfg.vaults_per_cube, cfg.dram.banks_per_vault,
          cfg.dram.row_bytes, phys_bytes),
      net(eq, cfg.link, stats)
{
    const unsigned total = cfg.num_cubes * cfg.vaults_per_cube;
    vaults.reserve(total);
    for (unsigned v = 0; v < total; ++v)
        vaults.push_back(
            std::make_unique<Vault>(eq, cfg.dram, map, v, stats));
    pim_handlers.assign(total, nullptr);

    stats.add("hmc.reads", &stat_reads);
    stats.add("hmc.writes", &stat_writes);
    stats.add("hmc.pim_ops", &stat_pim_ops);
    stats.add("hmc.read_ticks", &hist_read_ticks);
    stats.add("hmc.pim_roundtrip_ticks", &hist_pim_roundtrip_ticks);
    stats.addInvariant(
        "hmc.pim_ops == pim round trips",
        [this] {
            const std::uint64_t recorded =
                hist_pim_roundtrip_ticks.count();
            if (stat_pim_ops.value() == recorded)
                return std::string();
            return "pim_ops=" + std::to_string(stat_pim_ops.value()) +
                   " but " + std::to_string(recorded) +
                   " round trips timed (dispatched PIM op never "
                   "responded?)";
        });
}

void
HmcBackend::readBlock(Addr paddr, Callback cb)
{
    ++stat_reads;
    const MemLoc loc = map.decode(paddr);

    const Tick issued = eq.now();
    const Tick arrive = net.sendRequest(16, loc.cube);
    const std::uint32_t txn =
        read_txns.emplace(ReadTxn{loc, issued, std::move(cb)});
    const unsigned gv = loc.globalVault;
    eq.scheduleAt(arrive, [this, txn, gv, paddr] {
        vaults[gv]->accessBlock(paddr, false,
                                [this, txn] { readDone(txn); });
    });
}

void
HmcBackend::readDone(std::uint32_t txn)
{
    ReadTxn &t = read_txns[txn];
    const Tick back = net.sendResponse(16 + block_size, t.loc.cube);
    hist_read_ticks.record(back - t.issued);
    Callback cb = std::move(t.cb);
    read_txns.erase(txn);
    eq.scheduleAt(back, std::move(cb));
}

void
HmcBackend::writeBlock(Addr paddr, Callback cb)
{
    ++stat_writes;
    const MemLoc loc = map.decode(paddr);

    const Tick arrive = net.sendRequest(16 + block_size, loc.cube);
    const std::uint32_t txn = write_txns.emplace(WriteTxn{std::move(cb)});
    const unsigned gv = loc.globalVault;
    eq.scheduleAt(arrive, [this, txn, gv, paddr] {
        vaults[gv]->accessBlock(paddr, true,
                                [this, txn] { writeDone(txn); });
    });
}

void
HmcBackend::writeDone(std::uint32_t txn)
{
    // Writes are posted: completion is acknowledged without
    // consuming response bandwidth (footnote 7).
    Callback cb = std::move(write_txns[txn].cb);
    write_txns.erase(txn);
    if (cb)
        cb();
}

void
HmcBackend::attachPimHandler(unsigned global_vault, PimHandler *handler)
{
    panic_if(global_vault >= pim_handlers.size(),
             "vault index %u out of range", global_vault);
    pim_handlers[global_vault] = handler;
}

void
HmcBackend::sendPim(PimPacket pkt, PimHandler::Respond cb)
{
    ++stat_pim_ops;
    const MemLoc loc = map.decode(pkt.paddr);
    PimHandler *handler = pim_handlers[loc.globalVault];
    panic_if(handler == nullptr,
             "PIM operation sent to vault %u with no PCU attached",
             loc.globalVault);

    const Tick issued = eq.now();
    const Tick arrive = net.sendRequest(pkt.requestBytes(), loc.cube);
    const std::uint32_t txn =
        pim_txns.emplace(PimTxn{loc, issued, std::move(pkt), std::move(cb)});
    const unsigned gv = loc.globalVault;
    eq.scheduleAt(arrive, [this, txn, gv] {
        pim_handlers[gv]->handle(
            std::move(pim_txns[txn].pkt), [this, txn](PimPacket done) {
                pim_txns[txn].pkt = std::move(done); // park the response
                pimDone(txn);
            });
    });
}

void
HmcBackend::sendPimTrain(PimPacket *pkts, unsigned n,
                         PimHandler::Respond *cbs)
{
    panic_if(n == 0, "empty PIM train");
    if (n == 1) {
        // A window that drained with one PEI dispatches exactly like
        // an unbatched op (no header to amortize).
        sendPim(std::move(pkts[0]), std::move(cbs[0]));
        return;
    }

    stat_pim_ops += n;
    const MemLoc loc = map.decode(pkts[0].paddr);
    PimHandler *handler = pim_handlers[loc.globalVault];
    panic_if(handler == nullptr,
             "PIM train sent to vault %u with no PCU attached",
             loc.globalVault);

    // One compound train header, one 4-byte sub-header + input
    // operands per member — the per-op 8-byte headers collapse.
    unsigned bytes = 8;
    for (unsigned i = 0; i < n; ++i) {
        panic_if(map.decode(pkts[i].paddr).globalVault != loc.globalVault,
                 "PIM train mixes vaults (%u vs %u)",
                 map.decode(pkts[i].paddr).globalVault, loc.globalVault);
        bytes += 4 + pkts[i].input_size;
    }
    const Tick issued = eq.now();
    const Tick arrive = net.sendRequestTrain(bytes, n, loc.cube);

    const std::uint32_t txn =
        train_txns.emplace(TrainTxn{loc, issued, n, n, {}, {}});
    TrainTxn &train = train_txns[txn];
    train.pkts.reserve(n);
    train.cbs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        train.pkts.push_back(std::move(pkts[i]));
        train.cbs.push_back(std::move(cbs[i]));
    }
    const unsigned gv = loc.globalVault;
    eq.scheduleAt(arrive, [this, txn, gv] {
        TrainTxn &t = train_txns[txn];
        for (unsigned i = 0; i < t.n; ++i) {
            pim_handlers[gv]->handle(
                std::move(t.pkts[i]), [this, txn, i](PimPacket done) {
                    train_txns[txn].pkts[i] = std::move(done);
                    trainMemberDone(txn);
                });
        }
    });
}

void
HmcBackend::trainMemberDone(std::uint32_t txn)
{
    TrainTxn &t = train_txns[txn];
    panic_if(t.remaining == 0, "PIM train over-completed");
    if (--t.remaining > 0)
        return;

    // All members responded: merge the outputs into one response
    // train (or a posted ack when nothing carries output) and retire
    // every member at the train's arrival back at the host.
    unsigned bytes = 0;
    for (const PimPacket &pkt : t.pkts) {
        if (pkt.responseBytes() > 0)
            bytes += 4 + pkt.output_size;
    }
    Tick back;
    if (bytes > 0) {
        bytes += 16;
        back = net.sendResponseTrain(bytes, t.loc.cube);
    } else {
        back = eq.now() + net.ackLatency(t.loc.cube);
    }
    for (unsigned i = 0; i < t.n; ++i)
        hist_pim_roundtrip_ticks.record(back - t.issued);
    eq.scheduleAt(back, [this, txn] { trainRespond(txn); });
}

void
HmcBackend::trainRespond(std::uint32_t txn)
{
    TrainTxn &t = train_txns[txn];
    std::vector<PimPacket> pkts = std::move(t.pkts);
    std::vector<PimHandler::Respond> cbs = std::move(t.cbs);
    const unsigned n = t.n;
    train_txns.erase(txn);
    for (unsigned i = 0; i < n; ++i)
        cbs[i](std::move(pkts[i]));
}

void
HmcBackend::pimDone(std::uint32_t txn)
{
    PimTxn &t = pim_txns[txn];
    const unsigned bytes = t.pkt.responseBytes();
    Tick back;
    if (bytes > 0) {
        back = net.sendResponse(bytes, t.loc.cube);
    } else {
        // Posted ack: the response route's propagation + per-hop
        // latency, no link occupancy (acks aggregate into idle
        // flits).
        back = eq.now() + net.ackLatency(t.loc.cube);
    }
    hist_pim_roundtrip_ticks.record(back - t.issued);
    eq.scheduleAt(back, [this, txn] { pimRespond(txn); });
}

std::uint64_t
HmcBackend::memReads() const
{
    std::uint64_t n = 0;
    for (const auto &v : vaults)
        n += v->reads();
    return n;
}

std::uint64_t
HmcBackend::memWrites() const
{
    std::uint64_t n = 0;
    for (const auto &v : vaults)
        n += v->writes();
    return n;
}

void
HmcBackend::pimRespond(std::uint32_t txn)
{
    PimTxn &t = pim_txns[txn];
    PimHandler::Respond cb = std::move(t.cb);
    PimPacket done = std::move(t.pkt);
    pim_txns.erase(txn);
    cb(std::move(done));
}

} // namespace pei
