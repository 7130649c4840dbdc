#include "options.hh"

#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"

namespace pei
{

namespace
{

/**
 * If argv[i] spells @p flag, yield its value ("--flag v" or
 * "--flag=v") and advance @p i past consumed arguments.
 */
bool
flagValue(int argc, char **argv, int &i, const char *flag,
          std::string &value)
{
    const std::size_t len = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0) {
        fatal_if(i + 1 >= argc, "%s needs a value", flag);
        value = argv[++i];
        return true;
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
        value = argv[i] + len + 1;
        return true;
    }
    return false;
}

/** Parse argv[i] as a knob flag into @p knobs; false if it is none. */
bool
knobFlag(int argc, char **argv, int &i, KnobSet &knobs)
{
    std::string value;
    for (const Knob &k : knobTable()) {
        const std::string flag = k.flag();
        if (!flagValue(argc, argv, i, flag.c_str(), value))
            continue;
        const std::string err = knobs.assign(k, value);
        fatal_if(!err.empty(), "%s %s", flag.c_str(), err.c_str());
        return true;
    }
    return false;
}

/** Consume argv[i] (and its value) if it is one of @p own. */
bool
ownFlag(int argc, char **argv, int &i, const std::vector<OwnFlag> &own)
{
    std::string value;
    for (const OwnFlag &f : own) {
        if (f.takes_value ? flagValue(argc, argv, i, f.name, value)
                          : std::strcmp(argv[i], f.name) == 0) {
            if (f.value)
                *f.value = value;
            return true;
        }
    }
    return false;
}

} // namespace

SweepOptions
sweepOptionsFromArgs(int argc, char **argv, const std::vector<OwnFlag> &own)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (flagValue(argc, argv, i, "--jobs", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1,
                     "--jobs wants a positive integer, got '%s'",
                     value.c_str());
            opts.jobs = static_cast<unsigned>(n);
        } else if (flagValue(argc, argv, i, "--timeout-s", value)) {
            char *end = nullptr;
            const double s = std::strtod(value.c_str(), &end);
            fatal_if(!end || *end != '\0' || s <= 0.0,
                     "--timeout-s wants a positive number, got '%s'",
                     value.c_str());
            opts.timeout_s = s;
        } else if (flagValue(argc, argv, i, "--filter", value)) {
            opts.filter = value;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            opts.list = true;
        } else if (std::strcmp(argv[i], "--no-progress") == 0) {
            opts.progress = false;
        } else if (!knobFlag(argc, argv, i, opts.knobs) &&
                   !ownFlag(argc, argv, i, own)) {
            fatal("unknown argument '%s'", argv[i]);
        }
    }
    return opts;
}

unsigned
resolveWorkerCount(const SweepOptions &opts)
{
    if (opts.jobs)
        return opts.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace pei
