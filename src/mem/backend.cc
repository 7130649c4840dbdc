#include "backend.hh"

#include "common/logging.hh"
#include "mem/backend_config.hh"

namespace pei
{

namespace
{

/** One backend the factory knows: its name, its supportsPim() and
 *  how to construct it from its section of MemBackendConfig. */
struct Registered
{
    const char *name;
    bool pim_capable;
    std::unique_ptr<MemoryBackend> (*make)(EventQueue &,
                                           const MemBackendConfig &,
                                           StatRegistry &);
};

template <typename Backend, auto section>
std::unique_ptr<MemoryBackend>
make(EventQueue &eq, const MemBackendConfig &cfg, StatRegistry &stats)
{
    return std::make_unique<Backend>(eq, cfg.*section, stats,
                                     cfg.phys_bytes);
}

constexpr Registered registered[] = {
    {"ddr", DdrBackend::pim_capable,
     &make<DdrBackend, &MemBackendConfig::ddr>},
    {"hmc", HmcBackend::pim_capable,
     &make<HmcBackend, &MemBackendConfig::hmc>},
    {"ideal", IdealBackend::pim_capable,
     &make<IdealBackend, &MemBackendConfig::ideal>},
};

const Registered &
lookup(const std::string &name)
{
    for (const Registered &r : registered) {
        if (name == r.name)
            return r;
    }
    std::string known;
    for (const std::string &n : memoryBackendNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown memory backend '%s' (registered: %s)", name.c_str(),
          known.c_str());
}

} // namespace

std::vector<std::string>
memoryBackendNames()
{
    std::vector<std::string> names;
    for (const Registered &r : registered)
        names.push_back(r.name);
    return names;
}

bool
memoryBackendSupportsPim(const std::string &name)
{
    return lookup(name).pim_capable;
}

std::unique_ptr<MemoryBackend>
createMemoryBackend(const std::string &name, EventQueue &eq,
                    const MemBackendConfig &cfg, StatRegistry &stats)
{
    return lookup(name).make(eq, cfg, stats);
}

} // namespace pei
