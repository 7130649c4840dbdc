#include "vmem.hh"

#include <algorithm>

namespace pei
{

Addr
VirtualMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    fatal_if(bytes == 0, "zero-byte allocation");
    align = std::max<std::uint64_t>(align, block_size);
    next_vaddr = (next_vaddr + align - 1) & ~(align - 1);
    const Addr base = next_vaddr;
    next_vaddr += bytes;

    // Map every page in [base, base + bytes).
    const Addr first = vpn(base) - vpn(base_vaddr);
    const Addr last = vpn(base + bytes - 1) - vpn(base_vaddr);
    if (page_table.size() <= last)
        page_table.resize(last + 1, no_frame);
    for (Addr p = first; p <= last; ++p) {
        if (page_table[p] != no_frame)
            continue;
        fatal_if((frames.size() + 1) * page_size > phys_limit,
                 "out of simulated physical memory (%llu bytes)",
                 static_cast<unsigned long long>(phys_limit));
        page_table[p] = frames.size();
        // make_unique value-initializes: the frame starts zeroed.
        frames.push_back(Frame{std::make_unique<std::byte[]>(page_size)});
    }
    return base;
}

std::uint64_t
VirtualMemory::frameOf(Addr vaddr) const
{
    // An address below base_vaddr wraps to a huge index.
    const Addr idx = vpn(vaddr) - vpn(base_vaddr);
    const std::uint64_t pfn =
        idx < page_table.size() ? page_table[idx] : no_frame;
    fatal_if(pfn == no_frame, "access to unmapped virtual address 0x%llx",
             static_cast<unsigned long long>(vaddr));
    return pfn;
}

Addr
VirtualMemory::translate(Addr vaddr) const
{
    return (frameOf(vaddr) << page_shift) | (vaddr & (page_size - 1));
}

const std::byte *
VirtualMemory::framePtr(Addr vaddr) const
{
    return frames[frameOf(vaddr)].data.get() + (vaddr & (page_size - 1));
}

void *
VirtualMemory::hostPtr(Addr vaddr)
{
    return const_cast<std::byte *>(framePtr(vaddr));
}

const void *
VirtualMemory::hostPtr(Addr vaddr) const
{
    return framePtr(vaddr);
}

void
VirtualMemory::readBytes(Addr vaddr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::byte *>(dst);
    while (size > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(size, page_size - (vaddr & (page_size - 1)));
        std::memcpy(out, framePtr(vaddr), in_page);
        vaddr += in_page;
        out += in_page;
        size -= in_page;
    }
}

void
VirtualMemory::writeBytes(Addr vaddr, const void *src, std::uint64_t size)
{
    auto *in = static_cast<const std::byte *>(src);
    while (size > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(size, page_size - (vaddr & (page_size - 1)));
        std::memcpy(const_cast<std::byte *>(framePtr(vaddr)), in, in_page);
        vaddr += in_page;
        in += in_page;
        size -= in_page;
    }
}

Tlb::Tlb(unsigned entries, Ticks walk_latency)
    : walk_latency(walk_latency), slots(entries), index(entries)
{
    fatal_if(entries == 0, "TLB needs at least one entry");
}

void
Tlb::unlink(std::uint32_t s)
{
    const Slot &e = slots[s];
    if (e.prev != none)
        slots[e.prev].next = e.next;
    else
        mru = e.next;
    if (e.next != none)
        slots[e.next].prev = e.prev;
    else
        lru = e.prev;
}

void
Tlb::pushFront(std::uint32_t s)
{
    slots[s].prev = none;
    slots[s].next = mru;
    if (mru != none)
        slots[mru].prev = s;
    else
        lru = s;
    mru = s;
}

Ticks
Tlb::access(Addr vaddr)
{
    const Addr page = VirtualMemory::vpn(vaddr);
    std::uint32_t s = index.find(page);
    if (s != none) {
        ++hit_count;
        if (s != mru) {
            unlink(s);
            pushFront(s);
        }
        return 0;
    }
    ++miss_count;
    if (used < slots.size()) {
        s = used++;
    } else {
        s = lru; // the page whose last use is oldest
        unlink(s);
        index.erase(slots[s].page);
    }
    slots[s].page = page;
    index.insert(page, s);
    pushFront(s);
    return walk_latency;
}

} // namespace pei
