#include "hierarchy.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/logging.hh"

namespace pei
{

namespace
{

bool
hasWritePerm(MesiState s)
{
    return s == MesiState::Exclusive || s == MesiState::Modified;
}

} // namespace

CacheHierarchy::MshrFile::MshrFile(unsigned entries)
    : waiters(entries), index(entries)
{
    free_slots.reserve(entries);
    for (unsigned s = entries; s-- > 0;)
        free_slots.push_back(s);
}

std::vector<CacheHierarchy::Callback> *
CacheHierarchy::MshrFile::find(Addr block)
{
    const std::uint32_t s = index.find(block);
    return s == SlotIndex::npos ? nullptr : &waiters[s];
}

void
CacheHierarchy::MshrFile::allocate(Addr block)
{
    const std::uint32_t s = free_slots.back();
    free_slots.pop_back();
    index.insert(block, s);
}

std::vector<CacheHierarchy::Callback>
CacheHierarchy::MshrFile::release(Addr block)
{
    const std::uint32_t s = index.erase(block);
    panic_if(s == SlotIndex::npos, "MSHR vanished for block 0x%llx",
             static_cast<unsigned long long>(block));
    free_slots.push_back(s);
    return std::move(waiters[s]);
}

CacheHierarchy::CacheHierarchy(EventQueue &eq, const CacheConfig &cfg,
                               unsigned cores, MemoryBackend &mem,
                               StatRegistry &stats)
    : eq(eq), cfg(cfg), mem(mem), l3(cfg.l3_bytes, cfg.l3_ways),
      l3_mshrs(cfg.l3_mshrs), core_stalled(cores)
{
    fatal_if(cores == 0 || cores > 32, "unsupported core count %u", cores);
    // With no MSHRs every miss would stall forever.
    fatal_if(cfg.core_mshrs == 0 || cfg.l3_mshrs == 0,
             "cache needs at least one MSHR per core and one at the L3 "
             "(core_mshrs=%u, l3_mshrs=%u)",
             cfg.core_mshrs, cfg.l3_mshrs);
    privs.reserve(cores);
    core_mshrs.reserve(cores);
    for (unsigned c = 0; c < cores; ++c) {
        privs.emplace_back(cfg);
        core_mshrs.emplace_back(cfg.core_mshrs);
    }

    stats.add("cache.l1_hits", &stat_l1_hits);
    stats.add("cache.l1_misses", &stat_l1_misses);
    stats.add("cache.l2_hits", &stat_l2_hits);
    stats.add("cache.l2_misses", &stat_l2_misses);
    stats.add("cache.l3_hits", &stat_l3_hits);
    stats.add("cache.l3_misses", &stat_l3_misses);
    stats.add("cache.l1_accesses", &stat_l1_accesses);
    stats.add("cache.l2_accesses", &stat_l2_accesses);
    stats.add("cache.l3_accesses", &stat_l3_accesses);
    stats.add("cache.xbar_msgs", &stat_xbar_msgs);
    stats.add("cache.writebacks_l3", &stat_writebacks_l3);
    stats.add("cache.writebacks_mem", &stat_writebacks_mem);
    stats.add("cache.invalidations", &stat_invalidations);
    stats.add("cache.back_invalidations", &stat_back_inval);
    stats.add("cache.back_writebacks", &stat_back_wb);

    auto level_invariant = [&stats](const char *level, Counter *hits,
                                    Counter *misses, Counter *accesses) {
        stats.addInvariant(
            std::string("cache.") + level + " hits + misses == accesses",
            [hits, misses, accesses] {
                const std::uint64_t parts =
                    hits->value() + misses->value();
                if (parts == accesses->value())
                    return std::string();
                return "hits=" + std::to_string(hits->value()) +
                       " + misses=" + std::to_string(misses->value()) +
                       " != accesses=" +
                       std::to_string(accesses->value());
            });
    };
    level_invariant("l1", &stat_l1_hits, &stat_l1_misses,
                    &stat_l1_accesses);
    level_invariant("l2", &stat_l2_hits, &stat_l2_misses,
                    &stat_l2_accesses);
    // L3 accesses that coalesce onto an in-flight DRAM fetch are
    // neither hits nor misses; they retry (and get classified) when
    // the fetch lands.
    stats.add("cache.l3_mshr_coalesced", &stat_l3_coalesced);
    stats.addInvariant(
        "cache.l3 hits + misses + mshr_coalesced == accesses",
        [this] {
            const std::uint64_t parts = stat_l3_hits.value() +
                                        stat_l3_misses.value() +
                                        stat_l3_coalesced.value();
            if (parts == stat_l3_accesses.value())
                return std::string();
            return "hits=" + std::to_string(stat_l3_hits.value()) +
                   " + misses=" + std::to_string(stat_l3_misses.value()) +
                   " + coalesced=" +
                   std::to_string(stat_l3_coalesced.value()) +
                   " != accesses=" +
                   std::to_string(stat_l3_accesses.value());
        });
}

void
CacheHierarchy::access(unsigned core, Addr paddr, bool is_write, Callback cb)
{
    panic_if(core >= privs.size(), "access from bad core %u", core);
    const Addr block = paddr >> block_shift;

    ++stat_l1_accesses;
    CacheLine *l1line = privs[core].l1.find(block);
    if (l1line && (!is_write || hasWritePerm(l1line->state))) {
        ++stat_l1_hits;
        privs[core].l1.touch(*l1line);
        if (is_write) {
            l1line->state = MesiState::Modified;
            l1line->dirty = true;
        }
        eq.schedule(cfg.l1_latency, std::move(cb));
        return;
    }
    ++stat_l1_misses;

    // The miss path parks the requester's callback in a pooled
    // record; every downstream event captures only {this, handle}.
    const std::uint32_t req =
        accesses.emplace(PendingAccess{core, paddr, is_write, std::move(cb)});

    // Core-side MSHRs cover the private L1/L2 miss path: coalesce
    // same-block requests; stall when out of entries.
    auto &mshrs = core_mshrs[core];
    if (auto *waiters = mshrs.find(block)) {
        waiters->push_back(Callback([this, req] { retryAccess(req); }));
        return;
    }
    if (mshrs.full()) {
        core_stalled[core].push_back(
            Callback([this, req] { retryAccess(req); }));
        return;
    }
    mshrs.allocate(block);

    // L2 stage after the L1 lookup latency.
    eq.schedule(cfg.l1_latency, [this, req] { missL2(req); });
}

void
CacheHierarchy::retryAccess(std::uint32_t req)
{
    PendingAccess r = std::move(accesses[req]);
    accesses.erase(req);
    access(r.core, r.paddr, r.is_write, std::move(r.cb));
}

void
CacheHierarchy::completeCoreMiss(std::uint32_t req)
{
    // Release the MSHR, wake coalesced waiters and any globally
    // stalled requests, then signal the requester.
    const unsigned core = accesses[req].core;
    const Addr block = accesses[req].paddr >> block_shift;
    auto waiters = core_mshrs[core].release(block);
    Callback cb = std::move(accesses[req].cb);
    accesses.erase(req);
    cb();
    for (auto &w : waiters)
        w();
    drainCoreStalled(core);
}

void
CacheHierarchy::missL2(std::uint32_t req)
{
    const PendingAccess &r = accesses[req];
    const unsigned core = r.core;
    const bool is_write = r.is_write;
    const Addr blk = r.paddr >> block_shift;
    ++stat_l2_accesses;
    CacheLine *l2line = privs[core].l2.find(blk);
    if (l2line && (!is_write || hasWritePerm(l2line->state))) {
        ++stat_l2_hits;
        privs[core].l2.touch(*l2line);
        MesiState st = l2line->state;
        if (is_write)
            st = MesiState::Modified;
        fillPrivate(core, blk, st);
        if (is_write) {
            CacheLine *nl1 = privs[core].l1.find(blk);
            nl1->dirty = true;
            l2line->state = MesiState::Modified;
        }
        eq.schedule(cfg.l2_latency, [this, req] { completeCoreMiss(req); });
        return;
    }
    ++stat_l2_misses;
    ++stat_xbar_msgs;
    eq.schedule(cfg.l2_latency + cfg.xbar_latency,
                [this, req] { accessL3(req); });
}

void
CacheHierarchy::accessL3(std::uint32_t req)
{
    const unsigned core = accesses[req].core;
    const bool is_write = accesses[req].is_write;
    const Addr block = accesses[req].paddr >> block_shift;
    ++stat_l3_accesses;
    if (l3_listener)
        l3_listener(block);

    // Serialize against an in-flight DRAM fetch of the same block.
    if (auto *waiters = l3_mshrs.find(block)) {
        ++stat_l3_coalesced;
        waiters->push_back(Callback([this, req] { accessL3(req); }));
        return;
    }

    CacheLine *line = l3.find(block);
    if (line) {
        ++stat_l3_hits;
        l3.touch(*line);
        Ticks lat = cfg.l3_latency + cfg.xbar_latency;

        if (is_write) {
            // Invalidate all remote private copies; gain ownership.
            bool remote = false;
            for (unsigned c = 0; c < privs.size(); ++c) {
                if (c == core || !(line->sharers & (1u << c)))
                    continue;
                remote = true;
                ++stat_invalidations;
                if (invalidatePrivate(c, block))
                    line->dirty = true;
            }
            if (remote)
                lat += 2 * cfg.xbar_latency;
            line->sharers = 1u << core;
            line->owner = static_cast<std::int8_t>(core);
            fillPrivate(core, block, MesiState::Modified);
            CacheLine *nl1 = privs[core].l1.find(block);
            nl1->dirty = true;
        } else {
            // A remote modified/exclusive owner downgrades to shared.
            if (line->owner >= 0 &&
                static_cast<unsigned>(line->owner) != core) {
                if (downgradePrivate(static_cast<unsigned>(line->owner),
                                     block)) {
                    line->dirty = true;
                    ++stat_writebacks_l3;
                }
                lat += 2 * cfg.xbar_latency;
                line->owner = -1;
            }
            line->sharers |= 1u << core;
            MesiState st = MesiState::Shared;
            if (line->sharers == (1u << core) && line->owner < 0) {
                st = MesiState::Exclusive;
                line->owner = static_cast<std::int8_t>(core);
            } else if (line->owner == static_cast<std::int8_t>(core)) {
                st = MesiState::Exclusive;
            }
            fillPrivate(core, block, st);
        }
        eq.schedule(lat, [this, req] { completeCoreMiss(req); });
        return;
    }

    ++stat_l3_misses;
    if (l3_mshrs.full()) {
        l3_stalled.push_back(Callback([this, req] { accessL3(req); }));
        return;
    }
    l3_mshrs.allocate(block);

    mem.readBlock(accesses[req].paddr, [this, req] { l3FetchDone(req); });
}

void
CacheHierarchy::l3FetchDone(std::uint32_t req)
{
    const unsigned core = accesses[req].core;
    const bool is_write = accesses[req].is_write;
    const Addr block = accesses[req].paddr >> block_shift;

    CacheLine &nl = insertL3(block);
    nl.sharers = 1u << core;
    nl.owner = static_cast<std::int8_t>(core);
    fillPrivate(core, block,
                is_write ? MesiState::Modified : MesiState::Exclusive);
    if (is_write) {
        CacheLine *nl1 = privs[core].l1.find(block);
        nl1->dirty = true;
    }
    eq.schedule(cfg.l3_latency + cfg.xbar_latency,
                [this, req] { completeCoreMiss(req); });

    auto waiters = l3_mshrs.release(block);
    for (auto &w : waiters)
        w();
    drainL3Stalled();
}

void
CacheHierarchy::fillPrivate(unsigned core, Addr block, MesiState state)
{
    auto &pc = privs[core];

    // L2 first (inclusion: L1 ⊆ L2).
    CacheLine *l2line = pc.l2.find(block);
    if (!l2line) {
        CacheLine &v = pc.l2.victim(block);
        const Addr vblock = pc.l2.blockOf(v);
        if (vblock != invalid_addr) {
            // Inclusive: purge the L1 copy, merging dirtiness down.
            CacheLine *vl1 = pc.l1.find(vblock);
            bool vdirty = v.dirty;
            if (vl1) {
                vdirty |= vl1->dirty;
                pc.l1.invalidate(*vl1);
            }
            // Merge into the L3 line (present by inclusion).
            CacheLine *vl3 = l3.find(vblock);
            panic_if(!vl3, "L2 victim 0x%llx missing from inclusive L3",
                     static_cast<unsigned long long>(vblock));
            if (vdirty) {
                vl3->dirty = true;
                ++stat_writebacks_l3;
            }
            vl3->sharers &= ~(1u << core);
            if (vl3->owner == static_cast<std::int8_t>(core))
                vl3->owner = -1;
        }
        pc.l2.fill(v, block, state);
        l2line = &v;
    } else {
        l2line->state = state;
        pc.l2.touch(*l2line);
    }

    // Then L1.
    CacheLine *l1line = pc.l1.find(block);
    if (!l1line) {
        CacheLine &v = pc.l1.victim(block);
        if (v.dirty) {
            // Merge dirty data into the L2 copy (present by inclusion;
            // only a valid line is ever dirty).
            const Addr vblock = pc.l1.blockOf(v);
            CacheLine *vl2 = pc.l2.find(vblock);
            panic_if(!vl2, "L1 victim 0x%llx missing from inclusive L2",
                     static_cast<unsigned long long>(vblock));
            vl2->dirty = true;
        }
        pc.l1.fill(v, block, state);
    } else {
        l1line->state = state;
        pc.l1.touch(*l1line);
    }
}

bool
CacheHierarchy::invalidatePrivate(unsigned core, Addr block)
{
    auto &pc = privs[core];
    bool dirty = false;
    if (CacheLine *l1line = pc.l1.find(block)) {
        dirty |= l1line->dirty;
        pc.l1.invalidate(*l1line);
    }
    if (CacheLine *l2line = pc.l2.find(block)) {
        dirty |= l2line->dirty;
        pc.l2.invalidate(*l2line);
    }
    return dirty;
}

bool
CacheHierarchy::downgradePrivate(unsigned core, Addr block)
{
    auto &pc = privs[core];
    bool was_dirty = false;
    if (CacheLine *l1line = pc.l1.find(block)) {
        was_dirty |= l1line->dirty;
        l1line->dirty = false;
        l1line->state = MesiState::Shared;
    }
    if (CacheLine *l2line = pc.l2.find(block)) {
        was_dirty |= l2line->dirty;
        l2line->dirty = false;
        l2line->state = MesiState::Shared;
    }
    return was_dirty;
}

CacheLine &
CacheHierarchy::insertL3(Addr block)
{
    CacheLine &v = l3.victim(block);
    const Addr vblock = l3.blockOf(v);
    if (vblock != invalid_addr) {
        bool dirty = v.dirty;
        // Inclusive policy: back-invalidate every private copy.
        for (unsigned c = 0; c < privs.size(); ++c) {
            if (v.sharers & (1u << c))
                dirty |= invalidatePrivate(c, vblock);
        }
        if (dirty) {
            ++stat_writebacks_mem;
            mem.writeBlock(vblock << block_shift);
        }
    }
    l3.fill(v, block, MesiState::Invalid);
    return v;
}

void
CacheHierarchy::backInvalidate(Addr paddr, Callback cb)
{
    const Addr block = paddr >> block_shift;

    if (auto *waiters = l3_mshrs.find(block)) {
        const std::uint32_t op =
            back_ops.emplace(BackOp{paddr, true, std::move(cb)});
        waiters->push_back(Callback([this, op] { retryBackOp(op); }));
        return;
    }

    // Counted only when performed (an MSHR collision above retries
    // without double-counting), so one writer-PEI offload is exactly
    // one back-invalidation — the conservation audit depends on it.
    ++back_inval_calls;
    if (back_inval_calls == inject_skip_back_inval) {
        // Fault injection: report completion without cleaning any
        // copy (checker self-test).
        eq.schedule(cfg.l3_latency, std::move(cb));
        return;
    }
    ++stat_back_inval;

    // Inclusion guarantees private copies exist only under an L3
    // line, whose sharer vector bounds the invalidation fan-out.
    bool dirty = false;
    if (CacheLine *line = l3.find(block)) {
        for (unsigned c = 0; c < privs.size(); ++c) {
            if (line->sharers & (1u << c))
                dirty |= invalidatePrivate(c, block);
        }
        dirty |= line->dirty;
        l3.invalidate(*line);
    }
    if (dirty) {
        ++stat_writebacks_mem;
        mem.writeBlock(paddr);
    }
    eq.schedule(cfg.l3_latency, std::move(cb));
}

void
CacheHierarchy::backWriteback(Addr paddr, Callback cb)
{
    const Addr block = paddr >> block_shift;

    if (auto *waiters = l3_mshrs.find(block)) {
        const std::uint32_t op =
            back_ops.emplace(BackOp{paddr, false, std::move(cb)});
        waiters->push_back(Callback([this, op] { retryBackOp(op); }));
        return;
    }

    // Counted only when performed, mirroring backInvalidate: one
    // reader-PEI offload is exactly one back-writeback.
    ++stat_back_wb;

    if (CacheLine *line = l3.find(block)) {
        for (unsigned c = 0; c < privs.size(); ++c) {
            if ((line->sharers & (1u << c)) &&
                downgradePrivate(c, block)) {
                line->dirty = true;
                ++stat_writebacks_l3;
            }
        }
        line->owner = -1;
        if (line->dirty) {
            line->dirty = false;
            ++stat_writebacks_mem;
            mem.writeBlock(paddr);
        }
    }
    eq.schedule(cfg.l3_latency, std::move(cb));
}

void
CacheHierarchy::retryBackOp(std::uint32_t op)
{
    BackOp b = std::move(back_ops[op]);
    back_ops.erase(op);
    if (b.invalidate)
        backInvalidate(b.paddr, std::move(b.cb));
    else
        backWriteback(b.paddr, std::move(b.cb));
}

bool
CacheHierarchy::contains(Addr paddr)
{
    const Addr block = paddr >> block_shift;
    if (l3.find(block))
        return true;
    for (auto &pc : privs) {
        if (pc.l1.find(block) || pc.l2.find(block))
            return true;
    }
    return false;
}

bool
CacheHierarchy::l3Contains(Addr paddr)
{
    return l3.find(paddr >> block_shift) != nullptr;
}

MesiState
CacheHierarchy::l1State(unsigned core, Addr paddr)
{
    CacheLine *line = privs[core].l1.find(paddr >> block_shift);
    return line ? line->state : MesiState::Invalid;
}

MesiState
CacheHierarchy::l2State(unsigned core, Addr paddr)
{
    CacheLine *line = privs[core].l2.find(paddr >> block_shift);
    return line ? line->state : MesiState::Invalid;
}

void
CacheHierarchy::drainCoreStalled(unsigned core)
{
    // Retry while MSHR capacity remains.  Each retried request
    // either completes, coalesces onto an in-flight miss, or takes a
    // free MSHR — it never re-stalls while capacity remains, so the
    // loop strictly shrinks the queue (no quadratic retry storm).
    auto &queue = core_stalled[core];
    while (!queue.empty() && !core_mshrs[core].full()) {
        Callback fn = std::move(queue.front());
        queue.pop_front();
        fn();
    }
}

void
CacheHierarchy::drainL3Stalled()
{
    // Same shrinking-queue argument as drainCoreStalled: retried
    // requests hit, coalesce, or claim a free MSHR; none re-stall
    // while capacity remains.
    while (!l3_stalled.empty() && !l3_mshrs.full()) {
        Callback fn = std::move(l3_stalled.front());
        l3_stalled.pop_front();
        fn();
    }
}

std::string
CacheHierarchy::invariantViolation()
{
    std::string violation;
    auto record = [&violation](std::string v) {
        if (violation.empty())
            violation = std::move(v);
    };
    auto blockStr = [](Addr block) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%llx",
                      static_cast<unsigned long long>(block));
        return std::string(buf);
    };

    for (unsigned c = 0; c < privs.size(); ++c) {
        auto &pc = privs[c];
        const std::string who = "core " + std::to_string(c);

        // L1 ⊆ L2 with compatible states.
        pc.l1.forEachValid([&](Addr block, const CacheLine &) {
            if (!pc.l2.find(block)) {
                record(who + ": L1 block " + blockStr(block) +
                       " not in L2");
            }
        });

        // L2 ⊆ L3 with directory agreement.
        pc.l2.forEachValid([&](Addr block, const CacheLine &l2line) {
            CacheLine *l3line = l3.find(block);
            if (!l3line) {
                record(who + ": L2 block " + blockStr(block) +
                       " not in L3");
                return;
            }
            if (!(l3line->sharers & (1u << c))) {
                record(who + " not in sharer set of " + blockStr(block));
            }
            if ((l2line.state == MesiState::Exclusive ||
                 l2line.state == MesiState::Modified) &&
                l3line->owner != static_cast<std::int8_t>(c)) {
                record(who + " holds " + mesiName(l2line.state) + " on " +
                       blockStr(block) + " but L3 owner is " +
                       std::to_string(static_cast<int>(l3line->owner)));
            }
        });
    }

    // Directory sharer bits only reference cores that hold the block.
    l3.forEachValid([&](Addr block, const CacheLine &l3line) {
        for (unsigned c = 0; c < privs.size(); ++c) {
            if (!(l3line.sharers & (1u << c)))
                continue;
            if (!privs[c].l2.find(block)) {
                record("stale sharer bit: core " + std::to_string(c) +
                       " on block " + blockStr(block));
            }
        }
    });

    return violation;
}

void
CacheHierarchy::checkInvariants()
{
    const std::string violation = invariantViolation();
    panic_if(!violation.empty(), "%s", violation.c_str());
}

} // namespace pei
