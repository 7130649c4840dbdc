#include "dram.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace pei
{

DramController::DramController(EventQueue &eq, const DramTiming &t,
                               const AddrMap &map, const char *unit,
                               unsigned id, StatRegistry &stats)
    : eq(eq), t(t), limit_acts(t.rrd_s || t.rrd_l || t.faw), map(map),
      unit(unit), id(id), next_refresh(t.refi ? t.refi : max_tick)
{
    banks.resize(t.bank_groups * t.banks_per_group);
    group_last_act.assign(t.bank_groups, 0);

    const std::string p = unit + std::to_string(id) + ".";
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
DramController::accessBlock(Addr paddr, bool is_write, Callback cb)
{
    const MemLoc loc = map.decode(paddr);
    panic_if(loc.globalVault != id, "request for %s%u routed to %s%u",
             unit, loc.globalVault, unit, id);
    auto &q = is_write && t.write_queue ? write_q : read_q;
    q.push_back(Request{is_write, loc.row, loc.bank, std::move(cb)});
    hist_queue_depth.record(read_q.size() + write_q.size());
    trySchedule();
}

void
DramController::armRetry(Tick when)
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
DramController::advanceRefresh(Tick now)
{
    if (now < next_refresh)
        return;
    // Closed-form catch-up over any idle gap: only the most recent
    // refresh can still be blocking banks.
    const std::uint64_t periods = (now - next_refresh) / t.refi + 1;
    stat_refreshes += periods;
    const Tick last = next_refresh + (periods - 1) * t.refi;
    next_refresh += periods * t.refi;
    for (Bank &b : banks) {
        b.open_row = -1; // refresh precharges every bank
        b.free_at = std::max(b.free_at, last + t.rfc);
        b.ras_ready_at = 0;
    }
}

Tick
DramController::earliestStart(const Request &r, Tick now) const
{
    const Bank &b = banks[r.bank];
    Tick start = std::max(now, b.free_at);
    if (b.open_row == static_cast<std::int64_t>(r.row))
        return start;
    // Row miss: precharge honours tRAS; tRRD_S/tRRD_L and the rolling
    // four-activate tFAW window gate the *activate*, which issue()
    // places at start + tRP on a conflict (the precharge runs first),
    // at the start itself on a closed bank.
    if (b.open_row >= 0)
        start = std::max(start, b.ras_ready_at);
    if (!limit_acts)
        return start;
    const Ticks pre = b.open_row >= 0 ? t.rp : Ticks{0};
    Tick act = start + pre;
    act = std::max(act, any_last_act + t.rrd_s);
    act = std::max(act, group_last_act[groupOf(r.bank)] + t.rrd_l);
    if (act_window.size() >= 4)
        act = std::max(act, act_window.front() + t.faw);
    return act - pre;
}

void
DramController::issue(Request req, Tick now)
{
    Bank &bank = banks[req.bank];
    Ticks access = 0;
    if (bank.open_row == static_cast<std::int64_t>(req.row)) {
        access = t.cl;
        ++stat_row_hits;
    } else {
        const Ticks pre = bank.open_row >= 0 ? t.rp : Ticks{0};
        access = pre + t.rcd + t.cl;
        ++stat_activates;
        const Tick act = now + pre;
        if (limit_acts) {
            any_last_act = act;
            group_last_act[groupOf(req.bank)] = act;
            act_window.push_back(act);
            if (act_window.size() > 4)
                act_window.pop_front();
        }
        bank.ras_ready_at = act + t.ras;
    }
    bank.open_row = static_cast<std::int64_t>(req.row);

    // Data moves over the shared bus (a vault's TSVs, a channel's
    // data bus) after the array access; serialize transfers.
    const Tick data_ready = now + access;
    const Tick xfer_start = std::max(data_ready, bus_free_at);
    const Tick done = xfer_start + t.burst;
    bus_free_at = done;
    bank.free_at = done;
    if (req.is_write)
        ++stat_writes;
    else
        ++stat_reads;

    if (req.cb)
        eq.scheduleAt(done, std::move(req.cb));
}

std::deque<DramController::Request> &
DramController::activeQueue()
{
    return (draining || read_q.empty()) && !write_q.empty() ? write_q
                                                            : read_q;
}

void
DramController::trySchedule()
{
    const Tick now = eq.now();
    advanceRefresh(now);

    // Earliest start among the active queue's requests, as of the
    // last pick scan.  When that scan finds nothing issuable it has
    // visited every request, so this is when the policy can next
    // make progress.
    Tick earliest = max_tick;
    while (!read_q.empty() || !write_q.empty()) {
        // Drain hysteresis: once the write queue hits the high
        // watermark, writes win until it is back at the low one.
        if (write_q.size() >= t.write_drain_high)
            draining = true;
        else if (write_q.size() <= t.write_drain_low)
            draining = false;

        auto &q = activeQueue();

        // FR-FCFS within the active queue: oldest issuable row hit
        // wins, else the oldest issuable request.
        auto pick = q.end();
        earliest = max_tick;
        for (auto it = q.begin(); it != q.end(); ++it) {
            const Tick start = earliestStart(*it, now);
            if (start > now) {
                earliest = std::min(earliest, start);
                continue;
            }
            if (banks[it->bank].open_row ==
                static_cast<std::int64_t>(it->row)) {
                pick = it;
                break;
            }
            if (pick == q.end())
                pick = it;
        }
        if (pick == q.end())
            break;

        Request req = std::move(*pick);
        q.erase(pick);
        issue(std::move(req), now);
    }

    if (read_q.empty() && write_q.empty())
        return;

    // Everything the policy would serve next waits on a timing
    // constraint; retry at its earliest release.  Only the active
    // queue counts — a write that is issuable *now* but outranked by
    // pending reads is not progress.
    panic_if(earliest == max_tick || earliest <= now,
             "%s%u scheduler stuck", unit, id);
    armRetry(earliest);
}

namespace
{

DramTiming
vaultTiming(const DramConfig &cfg)
{
    DramTiming t;
    t.banks_per_group = cfg.banks_per_vault;
    t.cl = nsToTicks(cfg.tCL_ns);
    t.rcd = nsToTicks(cfg.tRCD_ns);
    t.rp = nsToTicks(cfg.tRP_ns);
    // Burst: one cache block over the vault's TSV bundle.
    t.burst = nsToTicks(static_cast<double>(block_size) / cfg.tsv_gbps);
    return t;
}

} // namespace

Vault::Vault(EventQueue &eq, const DramConfig &cfg, const AddrMap &map,
             unsigned global_id, StatRegistry &stats)
    : DramController(eq, vaultTiming(cfg), map, "vault", global_id, stats)
{}

} // namespace pei
