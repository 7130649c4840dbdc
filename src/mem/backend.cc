#include "backend.hh"

#include "common/logging.hh"
#include "mem/backend_config.hh"

namespace pei
{

std::vector<std::string>
memoryBackendNames()
{
    return {"ddr", "hmc", "ideal"};
}

std::unique_ptr<MemoryBackend>
createMemoryBackend(const std::string &name, EventQueue &eq,
                    const MemBackendConfig &cfg, StatRegistry &stats)
{
    if (name == "hmc")
        return std::make_unique<HmcBackend>(eq, cfg.hmc, stats,
                                            cfg.phys_bytes);
    if (name == "ddr")
        return std::make_unique<DdrBackend>(eq, cfg.ddr, stats,
                                            cfg.phys_bytes);
    if (name == "ideal")
        return std::make_unique<IdealBackend>(eq, cfg.ideal, stats,
                                              cfg.phys_bytes);
    std::string known;
    for (const std::string &n : memoryBackendNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown memory backend '%s' (registered: %s)", name.c_str(),
          known.c_str());
}

} // namespace pei
