/**
 * @file
 * The PEI operation set (paper Table 1) and its functional/timing
 * metadata.
 *
 * Every operation obeys the single-cache-block restriction: its
 * memory operand is confined to one 64 B last-level-cache block, and
 * its input/output operands are at most one block in size.  The same
 * computation logic exists in every PCU (host-side and memory-side),
 * so any PEI can execute at either location.
 */

#ifndef PEISIM_PIM_PEI_OP_HH
#define PEISIM_PIM_PEI_OP_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/pim_iface.hh"
#include "mem/vmem.hh"

namespace pei
{

/** Opcodes of the seven PIM operations of Table 1. */
enum class PeiOpcode : std::uint16_t
{
    Inc64 = 0,     ///< 8-byte atomic integer increment (ATF)
    Min64,         ///< 8-byte atomic integer min (BFS, SP, WCC)
    FaddDouble,    ///< atomic double add (PR)
    HashProbe,     ///< hash-bucket probe (HJ)
    HistBinIdx,    ///< histogram bin indexes of 16 ints (HG, RP)
    EuclidDist,    ///< 16-dim float distance accumulation (SC)
    DotProduct,    ///< 4-dim double dot product (SVM)
    NumOpcodes,
};

/** Static description of one PEI operation. */
struct PeiOpInfo
{
    const char *name;
    bool reads;            ///< reads its target block ('R' column)
    bool writes;           ///< modifies its target block ('W' column)
    unsigned input_bytes;  ///< input operand size
    unsigned output_bytes; ///< output operand size
    unsigned target_bytes; ///< bytes touched in the target block
    unsigned compute_cycles; ///< PCU-clock cycles of computation
};

/** Metadata for @p op. */
const PeiOpInfo &peiOpInfo(PeiOpcode op);

/**
 * Hash-join bucket layout: exactly one cache block.  Keys are probed
 * in place by the HashProbe PEI; 'next' chains overflow buckets
 * (a virtual address the *host* translates on the next probe,
 * keeping all address translation host-side per paper §4.4).
 */
struct HashBucket
{
    static constexpr unsigned max_keys = 6;
    std::uint64_t keys[max_keys];
    std::uint64_t count; ///< valid keys in this bucket
    std::uint64_t next;  ///< virtual address of overflow bucket or 0
};
static_assert(sizeof(HashBucket) == block_size);

/** Input operand of HashProbe. */
struct HashProbeIn
{
    std::uint64_t key;
};

/** Output operand of HashProbe (paper: 9 bytes). */
struct HashProbeOut
{
    std::uint64_t next; ///< overflow-chain virtual address (or 0)
    std::uint8_t match; ///< 1 if the key was found in this bucket
};

/**
 * Functionally execute @p pkt against the backing store (physical
 * addressing).  Called by whichever PCU the operation runs on; the
 * PIM directory guarantees this is race-free among PEIs.
 */
void executePeiFunctional(VirtualMemory &vm, PimPacket &pkt);

/** Populate a PimPacket for @p op targeting physical @p paddr. */
PimPacket makePimPacket(PeiOpcode op, Addr paddr, const void *input,
                        unsigned input_size);

} // namespace pei

#endif // PEISIM_PIM_PEI_OP_HH
