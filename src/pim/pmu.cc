#include "pmu.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pei
{

const char *
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::HostOnly: return "Host-Only";
      case ExecMode::PimOnly: return "PIM-Only";
      case ExecMode::IdealHost: return "Ideal-Host";
      case ExecMode::LocalityAware: return "Locality-Aware";
    }
    return "?";
}

Pmu::Pmu(EventQueue &eq, const PimConfig &cfg, unsigned cores,
         unsigned l3_sets, unsigned l3_ways, CacheHierarchy &hierarchy,
         MemoryBackend &mem, VirtualMemory &vm, StatRegistry &stats)
    : eq(eq), cfg(cfg), hierarchy(hierarchy), mem(mem), vm(vm),
      // Ideal-Host idealizes the directory: exact tracking, zero
      // latency, PEIs behave like host instructions (§7: "its PIM
      // directory is infinitely large and can be accessed in zero
      // cycles").
      dir(eq, cfg.mode == ExecMode::IdealHost ? 0 : cfg.directory_entries,
          cfg.mode == ExecMode::IdealHost ? 0 : cfg.directory_latency,
          stats),
      mon(cfg.monitor_sets ? cfg.monitor_sets : l3_sets,
          cfg.monitor_ways ? cfg.monitor_ways : l3_ways, stats,
          cfg.monitor_partial_tag_bits, cfg.monitor_ignore_flag)
{
    fatal_if(cfg.pei_batch == 0 || cfg.pei_batch > 64,
             "pei_batch must be in [1, 64], got %u", cfg.pei_batch);
    mon.setAccessLatency(cfg.monitor_latency);

    // The monitor mirrors every last-level cache access (§4.3), but
    // only when locality-aware execution is enabled; Host-Only and
    // PIM-Only "disable the locality monitor" (§7).
    if (cfg.mode == ExecMode::LocalityAware) {
        hierarchy.setL3AccessListener(
            [this](Addr block) { mon.onL3Access(block); });
    }

    host_pcus.reserve(cores);
    for (unsigned c = 0; c < cores; ++c) {
        host_pcus.push_back(std::make_unique<Pcu>(
            eq, "host_pcu" + std::to_string(c),
            cfg.pcu.operand_buffer_entries, cfg.pcu.issue_width,
            cfg.pcu.host_mhz, stats));
    }

    // Memory-side PCUs exist only where the backend can execute
    // them; on a non-PIM backend every PEI degrades to host-side
    // execution (decideLookup/memExecute below).
    if (mem.supportsPim()) {
        mem_pcus.reserve(mem.pimUnits());
        for (unsigned v = 0; v < mem.pimUnits(); ++v) {
            mem_pcus.push_back(std::make_unique<MemSidePcu>(
                eq, cfg.pcu, mem.pimUnitPort(v), vm, stats));
            mem.attachPimHandler(v, mem_pcus.back().get());
        }
    }

    // Batching window: only meaningful where PEIs can actually be
    // offloaded.  pei_batch == 1 leaves every window field untouched
    // and the whole dispatch path byte-identical to per-op dispatch.
    batch_on = cfg.pei_batch > 1 && mem.supportsPim();
    if (batch_on) {
        windows.resize(mem.pimUnits());
        vault_inflight.assign(mem.pimUnits(), 0);
    }

    stats.add("pmu.peis_issued", &stat_peis_issued);
    stats.add("pmu.peis_host", &stat_peis_host);
    stats.add("pmu.peis_mem", &stat_peis_mem);
    stats.add("pmu.peis_mem_writers", &stat_peis_mem_writers);
    stats.add("pmu.peis_mem_readers", &stat_peis_mem_readers);
    stats.add("coh.actions", &stat_coh_actions);
    if (batch_on) {
        stats.add("pmu.batched_peis", &stat_batched_peis);
        stats.add("pmu.pei_trains", &stat_pei_trains);
        stats.add("pmu.window_singletons", &stat_window_singletons);
        stats.add("pmu.batch_stalls", &stat_batch_stalls);
        stats.add("pmu.window_peis", &hist_window_peis);
    }
    stats.add("pmu.balanced_to_host", &stat_balanced_to_host);
    stats.add("pmu.balanced_to_mem", &stat_balanced_to_mem);
    stats.add("pmu.saturation_to_mem", &stat_saturation_to_mem);
    stats.add("pmu.pei_latency_ticks", &hist_pei_latency);
    stats.add("pmu.pei_latency_host_ticks", &hist_pei_latency_host);
    stats.add("pmu.pei_latency_mem_ticks", &hist_pei_latency_mem);
    stats.add("pmu.dir_wait_ticks", &hist_dir_wait);
    stats.add("pmu.host_cache_ticks", &hist_host_cache);
    stats.addInvariant(
        "pmu.peis_issued == peis_host + peis_mem",
        [this] {
            const std::uint64_t retired =
                stat_peis_host.value() + stat_peis_mem.value();
            if (stat_peis_issued.value() == retired)
                return std::string();
            return "issued=" + std::to_string(stat_peis_issued.value()) +
                   " != host+mem=" + std::to_string(retired) +
                   " (PEI lost in the pipeline?)";
        });
    // Offload/coherence conservation (Fig. 5 step ③).  The PMU is
    // the only caller of the cache's back-ops, and the cache counts
    // each one once, when performed, so a skipped cleaning step (e.g.
    // simfuzz's --inject-bug skip-back-inval) breaks the balance.
    // Per-op dispatch cleans the target block of every memory-side
    // writer PEI with exactly one back-invalidation and that of every
    // reader PEI with exactly one back-writeback.
    if (!batch_on) {
        stats.addInvariant(
            "pmu.peis_mem_writers == cache.back_invalidations",
            [this, &stats] {
                const std::uint64_t w = stat_peis_mem_writers.value();
                const std::uint64_t bi =
                    stats.get("cache.back_invalidations");
                if (w == bi)
                    return std::string();
                return "mem-side writer PEIs=" + std::to_string(w) +
                       " != back-invalidations=" + std::to_string(bi);
            });
        stats.addInvariant(
            "pmu.peis_mem_readers == cache.back_writebacks",
            [this, &stats] {
                const std::uint64_t r = stat_peis_mem_readers.value();
                const std::uint64_t bw = stats.get("cache.back_writebacks");
                if (r == bw)
                    return std::string();
                return "mem-side reader PEIs=" + std::to_string(r) +
                       " != back-writebacks=" + std::to_string(bw);
            });
    } else {
        // A train cleans a block its members share only once, so
        // batched dispatch balances the cleans it issued instead.
        stats.addInvariant(
            "coh.actions == cache.back_invalidations + "
            "cache.back_writebacks",
            [this, &stats] {
                const std::uint64_t a = stat_coh_actions.value();
                const std::uint64_t ops =
                    stats.get("cache.back_invalidations") +
                    stats.get("cache.back_writebacks");
                if (a == ops)
                    return std::string();
                return "coherence actions=" + std::to_string(a) +
                       " != back-ops=" + std::to_string(ops);
            });
    }
    if (batch_on) {
        stats.addInvariant(
            "pmu.batch windows drain by end of sim",
            [this] {
                std::size_t parked = 0;
                for (const auto &w : windows)
                    parked += w.txns.size();
                std::uint64_t credits = 0;
                for (unsigned c : vault_inflight)
                    credits += c;
                if (parked == 0 && credits == 0)
                    return std::string();
                return std::to_string(parked) +
                       " PEI(s) still parked in batch windows, " +
                       std::to_string(credits) +
                       " vault credit(s) still held";
            });
        // Train conservation: every PEI the window dispatched in a
        // multi-member train rode exactly one interconnect train
        // (packetized backends only; others fall back to per-op
        // dispatch inside sendPimTrain).
        if (std::string(mem.kind()) == "hmc") {
            stats.addInvariant(
                "pmu.batched_peis == net.trains.peis",
                [this, &stats] {
                    const std::uint64_t b = stat_batched_peis.value();
                    const std::uint64_t t = stats.get("net.trains.peis");
                    if (b == t)
                        return std::string();
                    return "batched PEIs=" + std::to_string(b) +
                           " != train-carried PEIs=" + std::to_string(t);
                });
        }
    }
}

void
Pmu::executePei(unsigned core, PeiOpcode op, Addr paddr, const void *input,
                unsigned input_size, DoneFn done, Ticks issue_latency)
{
    PimPacket pkt = makePimPacket(op, paddr, input, input_size);
    pkt.issue_tick = eq.now();
    ++stat_peis_issued;
    // Writers count as in flight from issue (not from directory
    // acquisition), so a pfence issued right after covers PEIs still
    // in their TLB-penalty or crossbar window; the directory retires
    // the writer in Pmu::finish via release().
    if (pkt.is_writer)
        dir.registerWriter();

    const std::uint32_t txn =
        txns.emplace(PeiTxn{std::move(pkt), std::move(done), core});
    if (issue_latency > 0) {
        eq.schedule(issue_latency, [this, txn] { startPei(txn); });
        return;
    }
    startPei(txn);
}

void
Pmu::startPei(std::uint32_t txn)
{
    if (cfg.mode == ExecMode::IdealHost) {
        // PEIs are ordinary host instructions: atomicity is free
        // (ideal zero-cycle directory) and no PCU resources exist.
        acquireLock(txn);
        return;
    }

    // ①② The core stages the PEI in its PCU's memory-mapped
    // registers and the PCU accesses the PMU over the crossbar to
    // obtain the reader-writer lock (directory latency charged
    // inside dir->acquire).  Note Fig. 4's ordering: the operand
    // buffer entry is allocated *after* the PMU grants the lock, so
    // PEIs waiting on a contended block do not occupy buffer
    // entries — host-side execution claims a host-PCU entry and
    // memory-side execution claims the target vault's PCU entry
    // (hence the paper's 576 = 16x4 + 128x4 in-flight PEI bound).
    eq.schedule(cfg.pmu_xbar_latency, [this, txn] { acquireLock(txn); });
}

void
Pmu::acquireLock(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    t.asked = eq.now();
    dir.acquire(t.pkt.paddr >> block_shift, t.pkt.is_writer,
                Callback([this, txn] { lockGranted(txn); }),
                /*writer_registered=*/t.pkt.is_writer);
}

void
Pmu::lockGranted(std::uint32_t txn)
{
    hist_dir_wait.record(eq.now() - txns[txn].asked);
    decide(txn);
}

void
Pmu::decide(std::uint32_t txn)
{
    switch (cfg.mode) {
      case ExecMode::HostOnly:
      case ExecMode::IdealHost:
        hostExecute(txn);
        return;
      case ExecMode::PimOnly:
        memExecute(txn);
        return;
      case ExecMode::LocalityAware:
        break;
    }

    // The locality monitor is consulted in parallel with the
    // directory (Fig. 4 step ②); charge only the extra latency
    // beyond the directory lookup.
    const Ticks extra = mon.accessLatency() > dir.accessLatency()
                            ? mon.accessLatency() - dir.accessLatency()
                            : 0;
    eq.schedule(extra, [this, txn] { decideLookup(txn); });
}

void
Pmu::decideLookup(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    const bool high_locality = mon.lookupForPei(t.pkt.paddr >> block_shift);
    if (!mem.supportsPim()) {
        // The monitor still profiles, but there is nowhere to
        // offload to: degrade to host-side execution.
        hostExecute(txn);
        return;
    }
    if (high_locality) {
        // §7.4 saturation override: a saturated off-chip link can
        // make memory-side execution cheaper even for a
        // high-locality PEI.  The EMA decays with a 10 µs half-life,
        // so the override releases once pressure subsides.
        if (cfg.balanced_dispatch && cfg.balanced_saturation_flits > 0.0 &&
            std::max(mem.emaRequestFlits(), mem.emaResponseFlits()) >=
                cfg.balanced_saturation_flits) {
            ++stat_saturation_to_mem;
            memExecute(txn);
            return;
        }
        hostExecute(txn);
        return;
    }
    bool offload = true;
    if (cfg.balanced_dispatch) {
        offload = balancedChoice(t.pkt);
        if (offload)
            ++stat_balanced_to_mem;
        else
            ++stat_balanced_to_host;
    }
    if (offload)
        memExecute(txn);
    else
        hostExecute(txn);
}

bool
Pmu::balancedChoice(const PimPacket &pkt)
{
    // §7.4: when response traffic dominates, pick the execution
    // location that consumes less response bandwidth; when request
    // traffic dominates, the one that consumes less request
    // bandwidth.  Host-side execution of a monitor-missed PEI
    // fetches the target block (16 B request, 80 B response) and,
    // for writers, eventually writes it back (80 B request).
    auto flits = [](unsigned bytes) { return (bytes + 15u) / 16u; };
    const unsigned host_req = flits(16) + (pkt.is_writer ? flits(80) : 0);
    const unsigned host_res = flits(16 + block_size);
    const unsigned mem_req = flits(pkt.requestBytes());
    const unsigned mem_res = flits(pkt.responseBytes());

    const double c_req = mem.emaRequestFlits();
    const double c_res = mem.emaResponseFlits();
    if (c_res > c_req)
        return mem_res <= host_res; // minimize response traffic
    return mem_req <= host_req;     // minimize request traffic
}

void
Pmu::hostExecute(std::uint32_t txn)
{
    if (cfg.mode != ExecMode::IdealHost) {
        // Fig. 4 step ③: allocate the operand buffer entry now that
        // the lock is held; stall if the buffer is full.
        host_pcus[txns[txn].core]->acquireEntry(
            [this, txn] { hostExecuteBuffered(txn); });
        return;
    }
    hostExecuteBuffered(txn);
}

void
Pmu::hostExecuteBuffered(std::uint32_t txn)
{
    // Fig. 4 steps ③-⑤: load the target block through the core's
    // L1, compute, store back if the PEI modifies the block.
    PeiTxn &t = txns[txn];
    t.load_start = eq.now();
    hierarchy.access(t.core, t.pkt.paddr, false,
                     [this, txn] { hostLoaded(txn); });
}

void
Pmu::hostLoaded(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    hist_host_cache.record(eq.now() - t.load_start);
    const PeiOpInfo &info = peiOpInfo(static_cast<PeiOpcode>(t.pkt.op));
    if (cfg.mode == ExecMode::IdealHost) {
        // Normal-instruction execution: fixed ALU latency, no PCU
        // port contention (the OoO core absorbs it).
        eq.schedule(info.compute_cycles, [this, txn] { hostComputed(txn); });
    } else {
        host_pcus[t.core]->compute(info.compute_cycles,
                                   [this, txn] { hostComputed(txn); });
    }
}

void
Pmu::hostComputed(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    executePeiFunctional(vm, t.pkt);
    if (!t.pkt.is_writer) {
        finish(txn, true);
        return;
    }
    hierarchy.access(t.core, t.pkt.paddr, true,
                     [this, txn] { finish(txn, true); });
}

void
Pmu::memExecute(std::uint32_t txn)
{
    if (!mem.supportsPim()) {
        // PIM-Only (and balanced dispatch) on a non-PIM backend
        // degrades to host-side execution.
        hostExecute(txn);
        return;
    }
    PeiTxn &t = txns[txn];
    if (cfg.mode == ExecMode::LocalityAware)
        mon.onPimIssue(t.pkt.paddr >> block_shift);
    if (t.pkt.is_writer)
        ++stat_peis_mem_writers;
    else
        ++stat_peis_mem_readers;

    // Batched dispatch: park the PEI in its vault's coalescing
    // window; the flush takes the coherence action and the
    // interconnect trip for the whole train at once.
    if (batch_on) {
        windowInsert(txn);
        return;
    }

    // Fig. 5 step ③: clean every on-chip copy of the target block
    // before the packet leaves.
    cleanBlock(blockAlign(t.pkt.paddr), t.pkt.is_writer,
               Callback([this, txn] { offload(txn); }));
}

void
Pmu::cleanBlock(Addr paddr, bool invalidate, Callback done)
{
    ++stat_coh_actions;
    if (invalidate)
        hierarchy.backInvalidate(paddr, std::move(done));
    else
        hierarchy.backWriteback(paddr, std::move(done));
}

void
Pmu::windowInsert(std::uint32_t txn)
{
    // A parked PEI keeps holding its directory lock; the window timer
    // bounds the added latency and guarantees every window drains
    // even if no further PEI ever arrives.
    const unsigned gv =
        mem.addrMap().decode(txns[txn].pkt.paddr).globalVault;
    BatchWindow &w = windows[gv];
    w.txns.push_back(txn);
    if (w.txns.size() >= cfg.pei_batch) {
        flushWindow(gv);
        return;
    }
    if (w.txns.size() == 1)
        armWindowTimer(gv);
}

void
Pmu::armWindowTimer(unsigned gv)
{
    // Generation-checked timeout: a flush bumps timer_gen, voiding
    // any timer armed for the previous fill.
    const std::uint64_t gen = windows[gv].timer_gen;
    eq.schedule(cfg.batch_window_ticks, [this, gv, gen] {
        BatchWindow &w = windows[gv];
        if (w.timer_gen != gen || w.txns.empty())
            return;
        flushWindow(gv);
    });
}

void
Pmu::flushWindow(unsigned gv)
{
    BatchWindow &w = windows[gv];
    if (w.txns.empty())
        return;
    ++w.timer_gen; // draining now; void any pending timeout
    w.flush_pending = false;
    const unsigned depth = cfg.pcu.issue_queue_depth;
    while (!w.txns.empty()) {
        unsigned n = static_cast<unsigned>(
            std::min<std::size_t>(w.txns.size(), cfg.pei_batch));
        if (depth > 0) {
            // Vault-PCU credit gate: never put more packets in flight
            // than the vault's issue queue can absorb.  A stalled
            // flush is retried as in-flight members retire (finish).
            if (vault_inflight[gv] >= depth) {
                w.flush_pending = true;
                ++stat_batch_stalls;
                return;
            }
            n = std::min(n, depth - vault_inflight[gv]);
        }
        dispatchTrain(gv, n);
    }
}

void
Pmu::dispatchTrain(unsigned gv, unsigned n)
{
    BatchWindow &w = windows[gv];
    const std::uint32_t train = train_txns.emplace(TrainTxn{});
    TrainTxn &tr = train_txns[train];
    tr.txns.assign(w.txns.begin(), w.txns.begin() + n);
    w.txns.erase(w.txns.begin(), w.txns.begin() + n);
    vault_inflight[gv] += n;

    hist_window_peis.record(n);
    if (n >= 2) {
        ++stat_pei_trains;
        stat_batched_peis += n;
    } else {
        ++stat_window_singletons;
    }

    // One merged coherence action covers the whole train (Fig. 5
    // step ③ amortized): each distinct target block of the members
    // is cleaned once — back-invalidated if any member writes it,
    // back-written-back otherwise — where per-op dispatch would clean
    // a hot block once per PEI.  The train leaves once the last block
    // is clean.
    struct Action
    {
        Addr block;
        bool written;
    };
    Action acts[64];
    unsigned nacts = 0;
    for (unsigned i = 0; i < n; ++i) {
        const PimPacket &pkt = txns[tr.txns[i]].pkt;
        const Addr block = blockAlign(pkt.paddr);
        unsigned k = 0;
        while (k < nacts && acts[k].block != block)
            ++k;
        if (k == nacts)
            acts[nacts++] = {block, false};
        acts[k].written = acts[k].written || pkt.is_writer;
    }
    tr.pending = nacts;
    for (unsigned k = 0; k < nacts; ++k) {
        cleanBlock(acts[k].block, acts[k].written, Callback([this, train] {
                       if (--train_txns[train].pending == 0)
                           offloadTrain(train);
                   }));
    }
}

void
Pmu::offloadTrain(std::uint32_t train)
{
    // Coherence granted for every member: record the in-flight probe
    // windows and hand the train to the backend — one compound packet
    // on HMC, a per-member fallback loop elsewhere.
    TrainTxn &tr = train_txns[train];
    const unsigned n = static_cast<unsigned>(tr.txns.size());
    PimPacket pkts[64];
    PimHandler::Respond cbs[64];
    for (unsigned i = 0; i < n; ++i) {
        const std::uint32_t txn = tr.txns[i];
        linkInflight(txn);
        pkts[i] = txns[txn].pkt; // a copy: the probes read its block
        cbs[i] = [this, txn](PimPacket completed) {
            memFinish(txn, std::move(completed));
        };
    }
    train_txns.erase(train);
    mem.sendPimTrain(pkts, n, cbs);
}

void
Pmu::linkInflight(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    InflightList &list = t.pkt.is_writer ? mem_writers : mem_readers;
    t.inflight_prev = list.tail;
    if (list.tail != no_txn)
        txns[list.tail].inflight_next = txn;
    else
        list.head = txn;
    list.tail = txn;
}

void
Pmu::unlinkInflight(std::uint32_t txn)
{
    PeiTxn &t = txns[txn];
    InflightList &list = t.pkt.is_writer ? mem_writers : mem_readers;
    panic_if(t.inflight_prev == no_txn && list.head != txn,
             "mem-side PEI retired without an in-flight record");
    if (t.inflight_prev != no_txn)
        txns[t.inflight_prev].inflight_next = t.inflight_next;
    else
        list.head = t.inflight_next;
    if (t.inflight_next != no_txn)
        txns[t.inflight_next].inflight_prev = t.inflight_prev;
    else
        list.tail = t.inflight_prev;
}

void
Pmu::offload(std::uint32_t txn)
{
    // The block is clean off-chip from here until retirement; probes
    // verify no (writer) / no Modified (reader) cached copy exists in
    // this window.
    linkInflight(txn);
    // A copy: the probes read the packet's block until retirement.
    mem.sendPim(txns[txn].pkt, [this, txn](PimPacket completed) {
        memFinish(txn, std::move(completed));
    });
}

void
Pmu::memFinish(std::uint32_t txn, PimPacket completed)
{
    txns[txn].pkt = std::move(completed);
    finish(txn, false);
}

void
Pmu::finish(std::uint32_t txn, bool executed_at_host)
{
    PeiTxn &t = txns[txn];
    const Ticks latency = eq.now() - t.pkt.issue_tick;
    hist_pei_latency.record(latency);
    if (executed_at_host) {
        ++stat_peis_host;
        hist_pei_latency_host.record(latency);
    } else {
        ++stat_peis_mem;
        hist_pei_latency_mem.record(latency);
        unlinkInflight(txn);
        if (batch_on) {
            // Return the vault-PCU credit and retry a flush the
            // credit gate deferred.
            const unsigned gv =
                mem.addrMap().decode(t.pkt.paddr).globalVault;
            panic_if(vault_inflight[gv] == 0, "vault credit underflow");
            --vault_inflight[gv];
            if (windows[gv].flush_pending)
                flushWindow(gv);
        }
    }

    // Releasing the directory entry also retires the writer that
    // executePei registered, waking pfence waiters when it was the
    // last one in flight.
    dir.release(t.pkt.paddr >> block_shift, t.pkt.is_writer);
    // Host-side execution held a host-PCU operand buffer entry;
    // memory-side execution used the vault PCU's buffer instead
    // (released inside MemSidePcu).
    if (executed_at_host && cfg.mode != ExecMode::IdealHost)
        host_pcus[t.core]->releaseEntry();

    // Retire the transaction before invoking the issuer: the callback
    // may immediately issue another PEI that reuses this slot.
    DoneFn done = std::move(t.done);
    PimPacket pkt = std::move(t.pkt);
    txns.erase(txn);
    done(pkt);
}

void
Pmu::pfence(Callback done)
{
    // The fence completes once every writer PEI issued before it has
    // retired (§3.2).  The directory tracks writers from issue
    // (registerWriter in executePei) to retire (release in finish),
    // which covers the whole PEI pipeline and subsumes the "all
    // entries readable" condition.  Open batching windows flush
    // first so parked writers head to memory immediately instead of
    // waiting out their window timers (a credit-stalled window drains
    // as its in-flight members retire; the directory keeps tracking
    // its parked writers either way).
    if (batch_on) {
        for (unsigned gv = 0; gv < windows.size(); ++gv)
            flushWindow(gv);
    }
    dir.pfence(std::move(done));
}

} // namespace pei
