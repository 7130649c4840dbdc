#include "input_cache.hh"

#include <map>
#include <sstream>

namespace pei
{

namespace
{

struct Cache
{
    std::mutex mutex;
    // unique_ptr values: entry addresses must survive rehash/insert
    // so the per-entry once_flag can be used outside the map lock.
    std::map<std::string, std::unique_ptr<detail::CacheEntry>> entries;
    // Both updated under `mutex`.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

Cache &
cache()
{
    static Cache c;
    return c;
}

} // namespace

namespace detail
{

CacheEntry &
inputCacheEntry(const std::string &key)
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    auto it = c.entries.find(key);
    if (it != c.entries.end()) {
        ++c.hits;
        return *it->second;
    }
    ++c.misses;
    it = c.entries.emplace(key, std::make_unique<CacheEntry>()).first;
    return *it->second;
}

} // namespace detail

InputCacheCounters
inputCacheCounters()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    return {c.hits, c.misses,
            static_cast<std::uint64_t>(c.entries.size())};
}

std::string
inputCacheCountersJson()
{
    const InputCacheCounters snap = inputCacheCounters();
    std::ostringstream os;
    os << "{\"hits\":" << snap.hits << ",\"misses\":" << snap.misses
       << ",\"entries\":" << snap.entries << "}";
    return os.str();
}

void
clearInputCache()
{
    Cache &c = cache();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.entries.clear();
    c.hits = 0;
    c.misses = 0;
}

} // namespace pei
