#include "ddr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pei
{

DdrChannel::DdrChannel(EventQueue &eq, const DdrConfig &cfg,
                       const AddrMap &map, unsigned chan_id,
                       StatRegistry &stats)
    : eq(eq), cfg(cfg), map(map), chan_id(chan_id)
{
    t_cl = nsToTicks(cfg.tCL_ns);
    t_rcd = nsToTicks(cfg.tRCD_ns);
    t_rp = nsToTicks(cfg.tRP_ns);
    t_ras = nsToTicks(cfg.tRAS_ns);
    t_rrd_s = nsToTicks(cfg.tRRD_S_ns);
    t_rrd_l = nsToTicks(cfg.tRRD_L_ns);
    t_faw = nsToTicks(cfg.tFAW_ns);
    t_refi = nsToTicks(cfg.tREFI_ns);
    t_rfc = nsToTicks(cfg.tRFC_ns);
    // Burst: one cache block over the channel's data bus.
    const double ns = static_cast<double>(block_size) / cfg.chan_gbps;
    t_burst = nsToTicks(ns);

    banks.resize(cfg.bank_groups * cfg.banks_per_group);
    group_last_act.assign(cfg.bank_groups, 0);
    next_refresh = t_refi;

    const std::string p = "chan" + std::to_string(chan_id) + ".";
    stats.add(p + "reads", &stat_reads);
    stats.add(p + "writes", &stat_writes);
    stats.add(p + "activates", &stat_activates);
    stats.add(p + "row_hits", &stat_row_hits);
    stats.add(p + "refreshes", &stat_refreshes);
    stats.add(p + "retry_arms", &stat_retry_arms);
    stats.add(p + "retry_fires", &stat_retry_fires);
    stats.add(p + "retry_stale", &stat_retry_stale);
    stats.add(p + "queue_depth", &hist_queue_depth);
    stats.addInvariant(
        p + "retry events balance at drain",
        [this] {
            // Every armed retry either fired live or drained as a
            // stale no-op; an imbalance (or a still-armed retry at
            // audit time) means a wakeup storm or a lost wakeup.
            const std::uint64_t arms = stat_retry_arms.value();
            const std::uint64_t done =
                stat_retry_fires.value() + stat_retry_stale.value();
            if (arms == done && !retry_armed)
                return std::string();
            return "retry_arms=" + std::to_string(arms) +
                   " but fires+stale=" + std::to_string(done) +
                   (retry_armed ? " with a retry still armed" : "");
        });
}

void
DdrChannel::accessBlock(Addr paddr, bool is_write, Callback cb)
{
    const MemLoc loc = map.decode(paddr);
    panic_if(loc.globalVault != chan_id,
             "request for channel %u routed to channel %u", loc.globalVault,
             chan_id);
    auto &q = is_write ? write_q : read_q;
    q.push_back(Request{paddr, is_write, loc.row, loc.bank, std::move(cb)});
    hist_queue_depth.record(read_q.size() + write_q.size());
    trySchedule();
}

void
DdrChannel::armRetry(Tick when)
{
    if (retry_armed && retry_at <= when)
        return;
    // Re-arming earlier abandons the already-scheduled later event;
    // it stays in the queue, so tag every arm with a generation and
    // let outdated events no-op instead of re-running the scheduler.
    const std::uint64_t gen = ++retry_gen;
    ++stat_retry_arms;
    retry_armed = true;
    retry_at = when;
    eq.scheduleAt(when, [this, gen] {
        if (gen != retry_gen) {
            ++stat_retry_stale;
            return;
        }
        ++stat_retry_fires;
        retry_armed = false;
        retry_at = max_tick;
        trySchedule();
    });
}

void
DdrChannel::advanceRefresh(Tick now)
{
    if (now < next_refresh)
        return;
    // Closed-form catch-up over any idle gap: only the most recent
    // refresh can still be blocking banks.
    const std::uint64_t periods = (now - next_refresh) / t_refi + 1;
    stat_refreshes += periods;
    const Tick last = next_refresh + (periods - 1) * t_refi;
    next_refresh += periods * t_refi;
    for (Bank &b : banks) {
        b.open_row = -1; // refresh precharges every bank
        b.free_at = std::max(b.free_at, last + t_rfc);
        b.ras_ready_at = 0;
    }
}

Tick
DdrChannel::earliestStart(const Request &r, Tick now) const
{
    const Bank &b = banks[r.bank];
    Tick t = std::max(now, b.free_at);
    if (b.open_row == static_cast<std::int64_t>(r.row))
        return t;
    // Row miss: precharge honours tRAS; tRRD_S/tRRD_L and the rolling
    // four-activate tFAW window gate the *activate*, which issue()
    // places at start + tRP on a conflict (the precharge runs first),
    // at the start itself on a closed bank.
    const Ticks pre = b.open_row >= 0 ? t_rp : Ticks{0};
    if (b.open_row >= 0)
        t = std::max(t, b.ras_ready_at);
    Tick act = t + pre;
    act = std::max(act, any_last_act + t_rrd_s);
    act = std::max(act, group_last_act[groupOf(r.bank)] + t_rrd_l);
    if (act_window.size() >= 4)
        act = std::max(act, act_window.front() + t_faw);
    return act - pre;
}

void
DdrChannel::issue(Request req, Tick now)
{
    Bank &bank = banks[req.bank];
    Ticks access = 0;
    if (bank.open_row == static_cast<std::int64_t>(req.row)) {
        access = t_cl;
        ++stat_row_hits;
    } else {
        access = (bank.open_row >= 0 ? t_rp : Ticks{0}) + t_rcd + t_cl;
        ++stat_activates;
        const Tick act = now + (bank.open_row >= 0 ? t_rp : Ticks{0});
        any_last_act = act;
        group_last_act[groupOf(req.bank)] = act;
        act_window.push_back(act);
        if (act_window.size() > 4)
            act_window.pop_front();
        bank.ras_ready_at = act + t_ras;
    }
    bank.open_row = static_cast<std::int64_t>(req.row);

    // Data moves over the shared channel bus after the array access.
    const Tick data_ready = now + access;
    const Tick xfer_start = std::max(data_ready, bus_free_at);
    const Tick done = xfer_start + t_burst;
    bus_free_at = done;
    bank.free_at = done;
    if (req.is_write)
        ++stat_writes;
    else
        ++stat_reads;

    if (req.cb)
        eq.scheduleAt(done, std::move(req.cb));
}

void
DdrChannel::trySchedule()
{
    const Tick now = eq.now();
    advanceRefresh(now);

    bool progress = true;
    while (progress && (!read_q.empty() || !write_q.empty())) {
        progress = false;

        // Drain hysteresis: once the write queue hits the high
        // watermark, writes win until it is back at the low one.
        if (write_q.size() >= cfg.write_drain_high)
            draining = true;
        else if (write_q.size() <= cfg.write_drain_low)
            draining = false;

        auto &q = (draining || read_q.empty()) && !write_q.empty()
                      ? write_q
                      : read_q;
        if (q.empty())
            break;

        // FR-FCFS within the active queue: oldest issuable row hit
        // wins, else the oldest issuable request.
        auto pick = q.end();
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (earliestStart(*it, now) > now)
                continue;
            if (banks[it->bank].open_row ==
                static_cast<std::int64_t>(it->row)) {
                pick = it;
                break;
            }
            if (pick == q.end())
                pick = it;
        }

        if (pick != q.end()) {
            Request req = std::move(*pick);
            q.erase(pick);
            issue(std::move(req), now);
            progress = true;
        }
    }

    if (read_q.empty() && write_q.empty())
        return;

    // Everything the policy would serve next waits on a timing
    // constraint; retry at its earliest release.  Only the active
    // queue counts — a write that is issuable *now* but outranked by
    // pending reads is not progress.
    const auto &q = (draining || read_q.empty()) && !write_q.empty()
                        ? write_q
                        : read_q;
    Tick earliest = max_tick;
    for (const auto &r : q)
        earliest = std::min(earliest, earliestStart(r, now));
    panic_if(earliest == max_tick || earliest <= now,
             "ddr channel scheduler stuck");
    armRetry(earliest);
}

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
