#include "pcu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pei
{

Pcu::Pcu(EventQueue &eq, const std::string &name, unsigned entries,
         unsigned issue_width, std::uint64_t mhz, StatRegistry &stats)
    : eq(eq), capacity(entries), mhz(mhz)
{
    fatal_if(entries == 0 || issue_width == 0,
             "PCU needs at least one operand buffer entry and port");
    port_free_at.assign(issue_width, 0);
    stats.add(name + ".executed", &stat_executed);
    stats.add(name + ".buffer_stalls", &stat_buffer_stalls);
    stats.add(name + ".buffer_acquires", &stat_entry_acquires);
    stats.add(name + ".buffer_releases", &stat_entry_releases);
    stats.add(name + ".buffer_wait_ticks", &hist_buffer_wait);
    stats.addInvariant(
        name + ".operand buffer acquire/release balance",
        [this] {
            if (stat_entry_acquires.value() ==
                stat_entry_releases.value() + in_use)
                return std::string();
            return "acquires=" +
                   std::to_string(stat_entry_acquires.value()) +
                   " != releases=" +
                   std::to_string(stat_entry_releases.value()) +
                   " + in_use=" + std::to_string(in_use);
        });
    stats.addInvariant(
        name + ".operand buffer drains by end of sim",
        [this] {
            if (in_use == 0 && entry_waiters.empty())
                return std::string();
            return std::to_string(in_use) + " entry(ies) still held, " +
                   std::to_string(entry_waiters.size) +
                   " waiter(s) still queued";
        });
}

void
Pcu::releaseEntry()
{
    panic_if(in_use == 0, "operand buffer release underflow");
    --in_use;
    ++stat_entry_releases;
    if (!entry_waiters.empty()) {
        ++in_use;
        ++stat_entry_acquires;
        eq.wake(entry_waiters);
    }
}

void
Pcu::compute(unsigned cycles, Callback done)
{
    // Pick the earliest-free computation port.
    auto port = std::min_element(port_free_at.begin(), port_free_at.end());
    const Tick start = std::max(eq.now(), *port);
    const Ticks duration = cyclesToTicks(cycles, mhz);
    *port = start + duration;
    ++stat_executed;
    eq.scheduleAt(*port, std::move(done));
}

MemSidePcu::MemSidePcu(EventQueue &eq, const PcuConfig &cfg, MemPort &port,
                       VirtualMemory &vm, StatRegistry &stats)
    : eq(eq), port(port), vm(vm),
      logic(eq, "mem_pcu" + std::to_string(port.globalId()),
            cfg.operand_buffer_entries, cfg.issue_width, cfg.mem_mhz,
            stats),
      stat_ops()
{
    const std::string name = "mem_pcu" + std::to_string(port.globalId());
    stats.add(name + ".ops", &stat_ops);
    stats.add(name + ".dram_ticks", &hist_dram_ticks);
}

void
MemSidePcu::handle(PimPacket pkt, Respond respond)
{
    ++stat_ops;
    const std::uint32_t txn =
        ops.emplace(OpTxn{std::move(pkt), std::move(respond)});
    logic.acquireEntry([this, txn] { entryGranted(txn); });
}

void
MemSidePcu::entryGranted(std::uint32_t txn)
{
    // The operand buffer issues the DRAM read immediately, even if
    // the computation logic is busy (paper §4.2).
    OpTxn &t = ops[txn];
    t.read_start = eq.now();
    port.accessBlock(t.pkt.paddr, false, [this, txn] { readDone(txn); });
}

void
MemSidePcu::readDone(std::uint32_t txn)
{
    OpTxn &t = ops[txn];
    hist_dram_ticks.record(eq.now() - t.read_start);
    const PeiOpInfo &info = peiOpInfo(static_cast<PeiOpcode>(t.pkt.op));
    logic.compute(info.compute_cycles, [this, txn] { computed(txn); });
}

void
MemSidePcu::computed(std::uint32_t txn)
{
    OpTxn &t = ops[txn];
    executePeiFunctional(vm, t.pkt);
    if (!t.pkt.is_writer) {
        respondNow(txn);
        return;
    }
    port.accessBlock(t.pkt.paddr, true, [this, txn] { respondNow(txn); });
}

void
MemSidePcu::respondNow(std::uint32_t txn)
{
    OpTxn &t = ops[txn];
    Respond respond = std::move(t.respond);
    PimPacket pkt = std::move(t.pkt);
    ops.erase(txn);
    logic.releaseEntry();
    respond(std::move(pkt));
}

} // namespace pei
