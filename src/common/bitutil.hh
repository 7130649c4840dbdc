/**
 * @file
 * Bit-manipulation helpers used by address mapping, the PIM directory
 * (XOR-folded indexing) and the locality monitor (folded partial tags).
 */

#ifndef PEISIM_COMMON_BITUTIL_HH
#define PEISIM_COMMON_BITUTIL_HH

#include <bit>
#include <cstdint>

#include "types.hh"

namespace pei
{

/** True if @p v is a nonzero power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v); v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Ceiling of log2(v); v must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Extract bits [lo, lo+width) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned width)
{
    if (width >= 64)
        return v >> lo;
    return (v >> lo) & ((1ULL << width) - 1);
}

/**
 * Fold @p v down to @p width bits by XOR-ing successive @p width-bit
 * slices.  This is the hash the paper uses both to index the tag-less
 * PIM directory and to construct the locality monitor's 10-bit partial
 * tags; it spreads entropy from all address bits into the result.
 */
constexpr std::uint64_t
foldedXor(std::uint64_t v, unsigned width)
{
    // A 0-bit fold has one value (a 1-entry table's only index), and
    // shifting by 0 would never end.
    if (width == 0)
        return 0;
    std::uint64_t folded = 0;
    const std::uint64_t mask = width >= 64 ? ~0ULL : (1ULL << width) - 1;
    while (v != 0) {
        folded ^= v & mask;
        v >>= width;
    }
    return folded & mask;
}

} // namespace pei

#endif // PEISIM_COMMON_BITUTIL_HH
