#include "report.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "runtime/knobs.hh"

namespace pei
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
systemConfigJson(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << "{\"mode\":\"" << jsonEscape(execModeName(cfg.pim.mode)) << "\""
       << ",\"cores\":" << cfg.cores
       << ",\"phys_bytes\":" << cfg.phys_bytes
       << ",\"l1_bytes\":" << cfg.cache.l1_bytes
       << ",\"l2_bytes\":" << cfg.cache.l2_bytes
       << ",\"l3_bytes\":" << cfg.cache.l3_bytes;
    // Knobs appear only off their defaults, so adding a knob leaves
    // the records of existing configurations unchanged.
    for (const auto &[knob, value] : KnobSet::of(cfg).offDefault()) {
        os << ",\"" << knob->key << "\":";
        if (knob->quoted)
            os << "\"" << jsonEscape(value) << "\"";
        else
            os << value;
    }
    os << ",\"hmc_cubes\":" << cfg.hmc.num_cubes
       << ",\"vaults_per_cube\":" << cfg.hmc.vaults_per_cube
       << ",\"directory_entries\":" << cfg.pim.directory_entries
       << ",\"operand_buffer_entries\":"
       << cfg.pim.pcu.operand_buffer_entries
       << ",\"balanced_dispatch\":"
       << (cfg.pim.balanced_dispatch ? "true" : "false") << "}";
    return os.str();
}

std::string
runRecordJson(System &sys, double wall_seconds, const std::string &label)
{
    const std::uint64_t events = sys.eventQueue().executedCount();
    const double eps =
        wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                           : 0.0;
    std::ostringstream os;
    os << "{\"label\":\"" << jsonEscape(label) << "\""
       << ",\"config\":" << systemConfigJson(sys.config())
       << ",\"sim_ticks\":" << sys.now()
       << ",\"events\":" << events
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"events_per_sec\":" << eps
       << ",\"counters\":" << sys.stats().countersJson()
       << ",\"histograms\":" << sys.stats().histogramsJson() << "}";
    return os.str();
}

std::string
statsJsonPathFromArgs(int argc, char **argv)
{
    static const char flag[] = "--stats-json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            fatal_if(i + 1 >= argc, "--stats-json needs a path argument");
            return argv[i + 1];
        }
        if (std::strncmp(argv[i], flag, sizeof(flag) - 1) == 0 &&
            argv[i][sizeof(flag) - 1] == '=') {
            return argv[i] + sizeof(flag);
        }
    }
    return "";
}

void
writeStatsJson(const std::string &path, const std::string &json)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open %s for writing", path.c_str());
    out << json << "\n";
    fatal_if(!out, "write to %s failed", path.c_str());
}

void
writeRunRecords(const std::string &path, const std::string &tool,
                const std::vector<std::string> &records,
                const std::vector<std::string> &failures,
                const std::string &extra_members)
{
    std::ostringstream os;
    os << "{\"tool\":\"" << jsonEscape(tool) << "\",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (i)
            os << ",";
        os << records[i];
    }
    os << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i)
            os << ",";
        os << failures[i];
    }
    os << "]";
    if (!extra_members.empty())
        os << "," << extra_members;
    os << "}";
    writeStatsJson(path, os.str());
}

} // namespace pei
