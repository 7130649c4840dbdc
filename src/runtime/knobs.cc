#include "knobs.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "mem/backend.hh"

namespace pei
{

namespace
{

constexpr long long no_max = std::numeric_limits<long long>::max();

/** "" when @p value is one of @p names, else the rejection text. */
std::string
oneOf(const std::string &value, const std::vector<std::string> &names,
      const char *what)
{
    if (std::find(names.begin(), names.end(), value) != names.end())
        return "";
    std::string known;
    for (const auto &n : names)
        known += (known.empty() ? "" : ", ") + n;
    return "'" + value + "' " + what + " (known: " + known + ")";
}

// The factories below take the knob's field as an accessor,
// `[](auto &c) -> auto & { return c.<field>; }`, which serves both
// set() and get().

/** A knob over a string field naming a registry entry. */
template <typename Field>
Knob
registryKnob(const char *key, const char *help, Field field,
             std::vector<std::string> (*names)())
{
    return {key, help,
            [=](SystemConfig &c, const std::string &v) {
                std::string err = oneOf(v, names(), "is not registered");
                if (err.empty())
                    field(c) = v;
                return err;
            },
            [=](const SystemConfig &c) { return field(c); }, true};
}

/**
 * A knob over an integer field that accepts [@p lo, @p hi], and only
 * powers of two when @p pow2; @p wants names that range in errors.
 */
template <typename Field>
Knob
integerKnob(const char *key, const char *help, Field field,
            const char *wants, long long lo, long long hi,
            bool pow2 = false)
{
    return {key, help,
            [=](SystemConfig &c, const std::string &v) {
                auto &f = field(c);
                using T = std::remove_reference_t<decltype(f)>;
                char *end = nullptr;
                errno = 0;
                const long long n = std::strtoll(v.c_str(), &end, 10);
                if (v.empty() || *end != '\0' || errno == ERANGE ||
                    n < lo || n > hi ||
                    static_cast<unsigned long long>(n) >
                        std::numeric_limits<T>::max() ||
                    (pow2 && !isPowerOf2(static_cast<std::uint64_t>(n))))
                    return std::string("wants ") + wants + ", got '" + v +
                           "'";
                f = static_cast<T>(n);
                return std::string();
            },
            [=](const SystemConfig &c) { return std::to_string(field(c)); },
            false};
}

} // namespace

std::string
Knob::flag() const
{
    std::string f = std::string("--") + key;
    std::replace(f.begin(), f.end(), '_', '-');
    return f;
}

const std::vector<Knob> &
knobTable()
{
    static const std::vector<Knob> table = {
        registryKnob(
            "mem_backend", "main-memory backend (hmc | ddr | ideal)",
            [](auto &c) -> auto & { return c.mem_backend; },
            memoryBackendNames),
        integerKnob(
            "cubes", "memory cubes on the interconnect (power of two)",
            [](auto &c) -> auto & { return c.hmc.num_cubes; },
            "a positive power of two", 1, no_max, true),
        integerKnob(
            "pei_batch", "PMU batching window size (1 = per-op dispatch)",
            [](auto &c) -> auto & { return c.pim.pei_batch; },
            "an integer in [1, 64]", 1, 64),
    };
    return table;
}

const Knob *
findKnob(const std::string &key)
{
    for (const Knob &k : knobTable()) {
        if (key == k.key)
            return &k;
    }
    return nullptr;
}

KnobSet
KnobSet::of(const SystemConfig &cfg)
{
    KnobSet s;
    for (const Knob &k : knobTable())
        s.values[&k] = k.get(cfg);
    return s;
}

std::string
KnobSet::assign(const Knob &knob, const std::string &value)
{
    // Parsing into a throwaway config validates the value and records
    // it spelled the way get() prints it ("08" becomes "8").
    SystemConfig trial = SystemConfig::scaled();
    std::string err = knob.set(trial, value);
    if (err.empty())
        values[&knob] = knob.get(trial);
    return err;
}

void
KnobSet::applyTo(SystemConfig &cfg) const
{
    for (const auto &[knob, value] : values) {
        const std::string err = knob->set(cfg, value);
        panic_if(!err.empty(), "knob %s %s", knob->key, err.c_str());
    }
}

KnobSet
KnobSet::offDefault() const
{
    const SystemConfig defaults = SystemConfig::scaled();
    KnobSet s;
    for (const auto &[knob, value] : values) {
        if (value != knob->get(defaults))
            s.values[knob] = value;
    }
    return s;
}

} // namespace pei
