#include "backend.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "mem/backend_config.hh"

namespace pei
{

namespace
{

/**
 * Guarded registry: Systems are constructed concurrently from the
 * driver's worker threads, so lookups and (rare) registrations
 * synchronize on one mutex.
 */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, MemBackendFactory> &
registry()
{
    static std::map<std::string, MemBackendFactory> r;
    return r;
}

std::unique_ptr<MemoryBackend>
makeHmc(EventQueue &eq, const MemBackendConfig &cfg, StatRegistry &stats)
{
    return std::make_unique<HmcBackend>(eq, cfg.hmc, stats,
                                        cfg.phys_bytes);
}

std::unique_ptr<MemoryBackend>
makeDdr(EventQueue &eq, const MemBackendConfig &cfg, StatRegistry &stats)
{
    return std::make_unique<DdrBackend>(eq, cfg.ddr, stats,
                                        cfg.phys_bytes);
}

std::unique_ptr<MemoryBackend>
makeIdeal(EventQueue &eq, const MemBackendConfig &cfg, StatRegistry &stats)
{
    return std::make_unique<IdealBackend>(eq, cfg.ideal, stats,
                                          cfg.phys_bytes);
}

/**
 * The built-ins register lazily on first registry use (not via
 * static initializers, which a static library may dead-strip).
 * Callers must hold registryMutex().
 */
void
ensureBuiltinsLocked()
{
    auto &r = registry();
    if (r.count("hmc"))
        return;
    r.emplace("hmc", &makeHmc);
    r.emplace("ddr", &makeDdr);
    r.emplace("ideal", &makeIdeal);
}

} // namespace

void
registerMemoryBackend(const std::string &name, MemBackendFactory factory)
{
    fatal_if(name.empty() || factory == nullptr,
             "memory-backend registration needs a name and a factory");
    std::lock_guard<std::mutex> lock(registryMutex());
    ensureBuiltinsLocked();
    registry()[name] = factory;
}

std::vector<std::string>
memoryBackendNames()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    ensureBuiltinsLocked();
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names; // std::map iteration is already sorted
}

std::unique_ptr<MemoryBackend>
createMemoryBackend(const std::string &name, EventQueue &eq,
                    const MemBackendConfig &cfg, StatRegistry &stats)
{
    MemBackendFactory factory = nullptr;
    {
        std::lock_guard<std::mutex> lock(registryMutex());
        ensureBuiltinsLocked();
        const auto it = registry().find(name);
        if (it != registry().end())
            factory = it->second;
    }
    if (!factory) {
        std::string known;
        for (const std::string &n : memoryBackendNames())
            known += (known.empty() ? "" : ", ") + n;
        fatal("unknown memory backend '%s' (registered: %s)",
              name.c_str(), known.c_str());
    }
    return factory(eq, cfg, stats);
}

} // namespace pei
