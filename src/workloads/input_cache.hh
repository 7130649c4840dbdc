/**
 * @file
 * Process-wide memoization of generated workload inputs.
 *
 * Every figure bench runs the same workload under several execution
 * modes (and the sweep driver runs those simulations concurrently),
 * but the host-side input for a given (kind, size, seed) — the graph's
 * CSR, the hash-join table image, the random key/point arrays — is
 * identical across those runs.  This cache builds each input once
 * and shares it read-only across simulations and host threads; only
 * the cheap copy into each System's simulated memory stays per-run.
 *
 * Thread safety: lookups take a global mutex only to find/insert the
 * entry; the (possibly expensive) build runs under a per-entry
 * std::call_once, so two jobs racing on the *same* input block only
 * each other, and jobs building *different* inputs proceed in
 * parallel.  Returned references stay valid for the process lifetime
 * (entries are never evicted; inputs are bounded by the distinct
 * workload configurations of one bench).
 */

#ifndef PEISIM_WORKLOADS_INPUT_CACHE_HH
#define PEISIM_WORKLOADS_INPUT_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace pei
{

class StatRegistry;

/** Hit/miss counters of the input cache (process-wide totals). */
struct InputCacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
};

/** Snapshot of the counters (reported in sweep summaries). */
InputCacheCounters inputCacheCounters();

/**
 * JSON object form of inputCacheCounters():
 * {"hits": H, "misses": M, "entries": E}.  The split is
 * interleaving-independent (exactly one miss per distinct key), so
 * the end-of-process value is deterministic for any --jobs.
 */
std::string inputCacheCountersJson();

/**
 * Register the process-wide hit/miss counters with @p reg under
 * "input_cache.hits" / "input_cache.misses".  The counters are
 * shared across every System in the process, so register them only
 * in single-run tools (tests, examples) — inside a parallel sweep
 * the per-run values would depend on sibling-job progress.  Note
 * that StatRegistry::resetAll() on @p reg zeroes the process-wide
 * totals.
 */
void registerInputCacheStats(StatRegistry &reg);

/** Drop every entry and zero the counters (tests only — references
 *  returned by cachedInput become dangling). */
void clearInputCache();

namespace detail
{

struct CacheEntry
{
    std::once_flag once;
    std::shared_ptr<void> value;
};

/** Find-or-insert the entry for @p key, counting a hit or miss. */
CacheEntry &inputCacheEntry(const std::string &key);

} // namespace detail

/**
 * The input memoized under @p key, building it with @p build on
 * first use.  @p key must encode every parameter @p build depends on
 * (convention: "<kind>/<param>=<value>/..."); T must be identical
 * for every use of a given key.
 */
template <typename T>
const T &
cachedInput(const std::string &key, const std::function<T()> &build)
{
    detail::CacheEntry &entry = detail::inputCacheEntry(key);
    std::call_once(entry.once, [&] {
        entry.value = std::make_shared<T>(build());
    });
    return *static_cast<const T *>(entry.value.get());
}

} // namespace pei

#endif // PEISIM_WORKLOADS_INPUT_CACHE_HH
