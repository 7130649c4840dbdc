/**
 * @file
 * Virtual memory: page table, allocation, functional backing store,
 * and a small per-core TLB model.
 *
 * PEIs and normal instructions both operate on virtual addresses
 * (paper §3.2/§4.4); translation happens at the host core using its
 * TLB, so the PMU and all PCUs see physical addresses only.  Pages
 * are backed by real host memory so workloads execute functionally
 * and their outputs can be validated against reference code.
 */

#ifndef PEISIM_MEM_VMEM_HH
#define PEISIM_MEM_VMEM_HH

#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/slot_index.hh"

namespace pei
{

/** Page geometry: 4 KiB pages throughout. */
constexpr unsigned page_shift = 12;
constexpr std::uint64_t page_size = 1ULL << page_shift;

/**
 * Single-address-space virtual memory with demand-free eager mapping:
 * alloc() assigns virtual pages and immediately binds physical frames
 * (frames are assigned sequentially; fine-grained interleaving across
 * vaults happens in the physical address map).
 */
class VirtualMemory
{
  public:
    explicit VirtualMemory(std::uint64_t phys_bytes)
        : phys_limit(phys_bytes)
    {}

    /**
     * Allocate @p bytes of virtual memory aligned to @p align
     * (>= one cache block).  Returns the virtual base address.
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = block_size);

    /** Translate; fatal on unmapped access (simulated segfault). */
    Addr translate(Addr vaddr) const;

    /** Virtual page number of the page backing @p vaddr. */
    static Addr vpn(Addr vaddr) { return vaddr >> page_shift; }

    /** Host pointer backing @p vaddr; valid within its page. */
    void *hostPtr(Addr vaddr);
    const void *hostPtr(Addr vaddr) const;

    /** Functional read of a POD value at @p vaddr. */
    template <typename T>
    T
    read(Addr vaddr) const
    {
        T out;
        readBytes(vaddr, &out, sizeof(T));
        return out;
    }

    /** Functional write of a POD value at @p vaddr. */
    template <typename T>
    void
    write(Addr vaddr, const T &value)
    {
        writeBytes(vaddr, &value, sizeof(T));
    }

    /** Functional bulk read; may cross page boundaries. */
    void readBytes(Addr vaddr, void *dst, std::uint64_t size) const;

    /** Functional bulk write; may cross page boundaries. */
    void writeBytes(Addr vaddr, const void *src, std::uint64_t size);

    /**
     * Host pointer backing physical address @p paddr.  Memory-side
     * PCUs and caches operate on physical addresses only (paper
     * §4.4); accesses must stay within one page.
     */
    void *
    hostPtrPhys(Addr paddr)
    {
        const std::uint64_t pfn = paddr >> page_shift;
        fatal_if(pfn >= frames.size(),
                 "access to unmapped physical address 0x%llx",
                 static_cast<unsigned long long>(paddr));
        return frames[pfn].data.get() + (paddr & (page_size - 1));
    }

    /** Functional read of a POD value at physical @p paddr. */
    template <typename T>
    T
    readPhys(Addr paddr)
    {
        T out;
        std::memcpy(&out, hostPtrPhys(paddr), sizeof(T));
        return out;
    }

    /** Functional write of a POD value at physical @p paddr. */
    template <typename T>
    void
    writePhys(Addr paddr, const T &value)
    {
        std::memcpy(hostPtrPhys(paddr), &value, sizeof(T));
    }

    /** Bytes of virtual memory allocated so far. */
    std::uint64_t allocatedBytes() const { return next_vaddr - base_vaddr; }

    /** Number of mapped pages (each owns one frame). */
    std::size_t mappedPages() const { return frames.size(); }

  private:
    struct Frame
    {
        std::unique_ptr<std::byte[]> data;
    };

    /** Frame backing @p vaddr; fatal on unmapped access. */
    std::uint64_t frameOf(Addr vaddr) const;

    const std::byte *framePtr(Addr vaddr) const;

    std::uint64_t phys_limit;
    // Start allocations away from 0 so that null-ish addresses fault.
    static constexpr Addr base_vaddr = 0x10000;
    /** Page-table entry of a page no allocation covers. */
    static constexpr std::uint64_t no_frame = ~std::uint64_t{0};
    Addr next_vaddr = base_vaddr;
    /**
     * vpn - vpn(base_vaddr) -> pfn.  Allocations are packed upwards
     * from base_vaddr, so the table is dense; only pages skipped by a
     * coarse alignment hold no_frame.
     */
    std::vector<std::uint64_t> page_table;
    std::vector<Frame> frames; // pfn -> storage
};

/**
 * Per-core TLB: fully-associative, LRU, with a fixed page-walk
 * penalty on miss.  Returns the access latency contribution of
 * translation for a memory operation or PEI issue.
 *
 * Entries live in a fixed slot array threaded by a recency list
 * (head most, tail least recently used) and are found through a
 * SlotIndex, so hits and misses are both O(1).  Every access moves
 * its page to the head, so the tail is exactly the page whose last
 * use is oldest: the LRU victim.
 */
class Tlb
{
  public:
    Tlb(unsigned entries, Ticks walk_latency);

    /**
     * Look up @p vaddr; updates LRU state and miss counters.
     * @return extra latency in ticks (0 on hit).
     */
    Ticks access(Addr vaddr);

    std::uint64_t hits() const { return hit_count; }
    std::uint64_t misses() const { return miss_count; }

  private:
    static constexpr std::uint32_t none = SlotIndex::npos;

    struct Slot
    {
        Addr page = 0;
        std::uint32_t prev = none; ///< toward the most recently used
        std::uint32_t next = none; ///< toward the least recently used
    };

    void unlink(std::uint32_t s);
    void pushFront(std::uint32_t s);

    Ticks walk_latency;
    std::uint64_t hit_count = 0;
    std::uint64_t miss_count = 0;
    std::vector<Slot> slots; ///< one per TLB entry
    std::uint32_t used = 0;  ///< slots filled so far
    std::uint32_t mru = none;
    std::uint32_t lru = none;
    SlotIndex index; ///< vpn -> slot
};

} // namespace pei

#endif // PEISIM_MEM_VMEM_HH
