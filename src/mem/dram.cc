#include "dram.hh"

#include <algorithm>
#include <bit>
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
    const unsigned num_banks = t.bank_groups * t.banks_per_group;
    // The busy-bank masks are one 64-bit word.
    fatal_if(num_banks > 64,
             "%s%u: %u banks, but a DRAM controller serves at most 64",
             unit, id, num_banks);
    banks.resize(num_banks);
    read_q.fifos.resize(num_banks);
    write_q.fifos.resize(num_banks);
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
    Queue &q = is_write && t.write_queue ? write_q : read_q;
    const Handle h = requests.emplace(next_seq++, loc.row, Pool::npos,
                                      is_write, std::move(cb));
    Queue::Fifo &f = q.fifos[loc.bank];
    if (f.tail == Pool::npos)
        f.head = h;
    else
        requests[f.tail].next = h;
    f.tail = h;
    if (isOpenRow(loc.bank, loc.row))
        ++f.open_row_reqs;
    q.busy |= std::uint64_t{1} << loc.bank;
    ++q.size;
    hist_queue_depth.record(read_q.size + write_q.size);
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
    for (Queue *q : {&read_q, &write_q}) {
        for (Queue::Fifo &f : q->fifos)
            f.open_row_reqs = 0;
    }
}

Tick
DramController::missStart(unsigned b, Tick now) const
{
    const Bank &bank = banks[b];
    Tick start = std::max(now, bank.free_at);
    // Precharge honours tRAS; tRRD_S/tRRD_L and the rolling
    // four-activate tFAW window gate the *activate*, which issue()
    // places at start + tRP on a conflict (the precharge runs first),
    // at the start itself on a closed bank.
    if (bank.open_row >= 0)
        start = std::max(start, bank.ras_ready_at);
    if (!limit_acts)
        return start;
    const Ticks pre = bank.open_row >= 0 ? t.rp : Ticks{0};
    Tick act = start + pre;
    act = std::max(act, any_last_act + t.rrd_s);
    act = std::max(act, group_last_act[groupOf(b)] + t.rrd_l);
    if (act_count == act_ring.size())
        act = std::max(act, act_ring[act_next] + t.faw);
    return act - pre;
}

void
DramController::recountOpenRow(unsigned b)
{
    for (Queue *q : {&read_q, &write_q}) {
        Queue::Fifo &f = q->fifos[b];
        f.open_row_reqs = 0;
        for (Handle h = f.head; h != Pool::npos; h = requests[h].next)
            f.open_row_reqs += isOpenRow(b, requests[h].row);
    }
}

void
DramController::issue(Queue &q, unsigned b, Handle h, Handle prev, Tick now)
{
    Request &req = requests[h];
    Queue::Fifo &f = q.fifos[b];
    if (prev == Pool::npos)
        f.head = req.next;
    else
        requests[prev].next = req.next;
    if (f.tail == h)
        f.tail = prev;
    if (f.head == Pool::npos)
        q.busy &= ~(std::uint64_t{1} << b);
    --q.size;

    Bank &bank = banks[b];
    Ticks access = 0;
    if (isOpenRow(b, req.row)) {
        access = t.cl;
        ++stat_row_hits;
        --f.open_row_reqs;
    } else {
        const Ticks pre = bank.open_row >= 0 ? t.rp : Ticks{0};
        access = pre + t.rcd + t.cl;
        ++stat_activates;
        const Tick act = now + pre;
        if (limit_acts) {
            any_last_act = act;
            group_last_act[groupOf(b)] = act;
            act_ring[act_next] = act;
            act_next = (act_next + 1) % act_ring.size();
            act_count += act_count < act_ring.size();
        }
        bank.ras_ready_at = act + t.ras;
        bank.open_row = static_cast<std::int64_t>(req.row);
        recountOpenRow(b);
    }

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
    requests.erase(h);
}

DramController::Queue &
DramController::activeQueue()
{
    return (draining || read_q.size == 0) && write_q.size > 0 ? write_q
                                                              : read_q;
}

void
DramController::trySchedule()
{
    const Tick now = eq.now();
    advanceRefresh(now);

    // Earliest start among the active queue's requests, as of the
    // last pick.  When that pick finds nothing issuable it has
    // visited every busy bank, so this is when the policy can next
    // make progress.
    Tick earliest = max_tick;
    while (read_q.size + write_q.size > 0) {
        // Drain hysteresis: once the write queue hits the high
        // watermark, writes win until it is back at the low one.
        if (write_q.size >= t.write_drain_high)
            draining = true;
        else if (write_q.size <= t.write_drain_low)
            draining = false;

        Queue &q = activeQueue();

        // FR-FCFS within the active queue: oldest issuable row hit
        // wins, else the oldest issuable request.  A bank's hits are
        // issuable exactly when the bank is free; its misses all
        // share missStart, so only its FIFO head can be the oldest
        // issuable miss.  Once a candidate exists, `earliest` is not
        // needed, so banks that cannot beat it are skipped.
        Handle pick = Pool::npos;
        Handle pick_prev = Pool::npos;
        unsigned pick_bank = 0;
        std::uint64_t pick_seq = ~std::uint64_t{0};
        bool pick_hit = false;
        earliest = max_tick;
        for (std::uint64_t m = q.busy; m != 0; m &= m - 1) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(m));
            const Queue::Fifo &f = q.fifos[b];
            if (f.open_row_reqs > 0) {
                const Tick free_at = banks[b].free_at;
                if (free_at > now) {
                    earliest = std::min(earliest, free_at);
                    continue;
                }
                Handle prev = Pool::npos;
                Handle h = f.head;
                while (!isOpenRow(b, requests[h].row)) {
                    prev = h;
                    h = requests[h].next;
                    panic_if(h == Pool::npos,
                             "%s%u bank %u: open-row count %u, but no "
                             "queued request to the open row",
                             unit, id, b, f.open_row_reqs);
                }
                const std::uint64_t seq = requests[h].seq;
                if (pick_hit && pick_seq < seq)
                    continue;
                pick = h;
                pick_prev = prev;
                pick_bank = b;
                pick_seq = seq;
                pick_hit = true;
            } else if (!pick_hit) {
                const std::uint64_t seq = requests[f.head].seq;
                if (pick_seq < seq)
                    continue;
                const Tick start = missStart(b, now);
                if (start > now) {
                    earliest = std::min(earliest, start);
                    continue;
                }
                pick = f.head;
                pick_prev = Pool::npos;
                pick_bank = b;
                pick_seq = seq;
            }
        }
        if (pick == Pool::npos)
            break;
        issue(q, pick_bank, pick, pick_prev, now);
    }

    if (read_q.size + write_q.size == 0)
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
