/**
 * @file
 * Bucket-chained hash-table image for HashProbe PEIs.
 *
 * Its one consumer, the Hash Join workload, probes a power-of-two
 * array of 64 B HashBucket blocks (~4 keys per primary bucket) with
 * overflow buckets chained behind them.  The host-side image stores
 * chain links as bucket *indices* (index+1, 0 = end) so it can be
 * memoized process-wide and shared across Systems;
 * materializeHashTable() resolves the links against one run's table
 * base when copying the image into simulated memory.
 */

#ifndef PEISIM_WORKLOADS_HASH_TABLE_HH
#define PEISIM_WORKLOADS_HASH_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "pim/pei_op.hh"

namespace pei
{

class Runtime;

/** Host-side, address-independent bucket-chained table image. */
struct HashTableImage
{
    std::uint64_t num_buckets = 0;      ///< primary buckets (pow2)
    std::vector<HashBucket> buckets;    ///< primary + overflow blocks
    std::vector<std::uint64_t> chain_next; ///< index+1 links, 0 = end
};

/** SplitMix64 finalizer used as the shared bucket hash. */
std::uint64_t hashTableHash(std::uint64_t key);

/** Build the image for @p keys (~4 keys per primary bucket). */
HashTableImage buildHashTable(const std::vector<std::uint64_t> &keys);

/**
 * Allocate simulated memory for @p img, resolve the index links into
 * addresses, and copy every bucket in.  Returns the table base.
 */
Addr materializeHashTable(Runtime &rt, const HashTableImage &img);

/** Simulated address of @p key's primary bucket. */
inline Addr
hashTableBucketAddr(Addr table_base, std::uint64_t num_buckets,
                    std::uint64_t key)
{
    return table_base + (hashTableHash(key) & (num_buckets - 1)) *
                            block_size;
}

} // namespace pei

#endif // PEISIM_WORKLOADS_HASH_TABLE_HH
