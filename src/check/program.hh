/**
 * @file
 * simfuzz program generator: seeded random PEI/load/store/pfence
 * streams whose cross-thread-visible effects are *commutative by
 * construction*, so every legal serialization collapses to a single
 * observable outcome and a sequential golden model can check any
 * simulated interleaving exactly (see DESIGN.md, "Golden-model
 * methodology").
 *
 * The footprint is partitioned into three regions:
 *  - read-only blocks, targeted by reader PEIs (HashProbe,
 *    HistBinIdx, EuclidDist, DotProduct) and plain loads — never
 *    written, so reader outputs depend only on the initial image;
 *  - shared writer blocks, each tagged with exactly one commutative
 *    op class (Inc64, Min64, or exact integral FaddDouble) and only
 *    ever targeted by writer PEIs of that class;
 *  - private per-thread blocks, targeted by plain stores and loads
 *    of their owning thread only.
 *
 * Replay is (seed, prefix-length, thread-mask): the full program is
 * always regenerated from the seed, then each thread's stream is
 * truncated to the prefix and masked-out threads are dropped, so a
 * minimized case is byte-stable across machines.
 */

#ifndef PEISIM_CHECK_PROGRAM_HH
#define PEISIM_CHECK_PROGRAM_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"
#include "pim/pei_op.hh"

namespace pei
{
namespace fuzz
{

/** SplitMix64 finalizer: the deterministic value/seed scrambler. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** One step of a generated thread stream. */
enum class OpKind : std::uint8_t
{
    Pei,    ///< a PEI of FuzzOp::op targeting FuzzOp::block
    Load,   ///< plain timing load (read-only or own private block)
    Store,  ///< plain store to an own private block (fwrite + store)
    Pfence, ///< PIM memory fence
    Compute ///< computation burst (perturbs timing only)
};

struct FuzzOp
{
    OpKind kind = OpKind::Compute;
    PeiOpcode op = PeiOpcode::Inc64; ///< Pei only
    std::uint32_t block = 0; ///< footprint block index (Pei/Load/Store)
    std::uint64_t value = 0; ///< operand seed / store value / cycles
    bool async = false;      ///< async vs. blocking issue style

    bool operator==(const FuzzOp &) const = default;
};

/** Marker for "no truncation" (run every generated op). */
inline constexpr std::size_t full_prefix =
    std::numeric_limits<std::size_t>::max();

/** A complete generated program plus its footprint description. */
struct FuzzProgram
{
    std::uint64_t seed = 0;
    std::size_t prefix = full_prefix;
    std::uint32_t thread_mask = 0xffffffffu;

    unsigned threads_total = 0;       ///< generated (pre-mask) threads
    std::vector<unsigned> thread_ids; ///< included generator thread ids
    bool contended = false; ///< shared writer blocks open to all threads

    std::uint32_t ro_blocks = 0;
    std::uint32_t shared_blocks = 0;
    std::uint32_t priv_blocks_per_thread = 0;
    std::uint32_t total_blocks = 0;

    /** Op class of each shared writer block (Inc64/Min64/FaddDouble). */
    std::vector<PeiOpcode> shared_class;

    /** Initial bytes of the whole footprint (total_blocks blocks). */
    std::vector<std::uint8_t> init_image;

    /** Truncated streams, aligned with thread_ids. */
    std::vector<std::vector<FuzzOp>> streams;

    std::uint32_t sharedBlockIndex(std::uint32_t i) const
    {
        return ro_blocks + i;
    }

    std::uint32_t
    privBlockIndex(unsigned thread_id, std::uint32_t j) const
    {
        return ro_blocks + shared_blocks +
               thread_id * priv_blocks_per_thread + j;
    }

    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &s : streams)
            n += s.size();
        return n;
    }
};

/**
 * Generate the program for @p seed, truncate every thread's stream
 * to @p prefix ops, and drop threads whose bit is clear in
 * @p thread_mask.  Layout and initial image depend only on the seed.
 */
FuzzProgram generateProgram(std::uint64_t seed,
                            std::size_t prefix = full_prefix,
                            std::uint32_t thread_mask = 0xffffffffu);

/**
 * Materialize the input operand of @p op from the op's value seed
 * into @p out (at least max_operand_bytes large); returns the
 * operand size.  Shared between the simulator-side interpreter and
 * the golden model so both feed byte-identical inputs.
 */
unsigned fillInput(PeiOpcode op, std::uint64_t value, std::uint8_t *out);

/** Byte offset of @p o's target within its block (0 except for
 *  DotProduct, which exercises both in-block positions). */
unsigned peiOffset(const FuzzOp &o);

/** Byte offset of a plain store within its private block. */
unsigned storeOffset(const FuzzOp &o);

} // namespace fuzz
} // namespace pei

#endif // PEISIM_CHECK_PROGRAM_HH
