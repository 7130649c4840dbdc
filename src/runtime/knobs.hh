/**
 * @file
 * Configuration knobs: the SystemConfig fields a run sets from the
 * command line, declared once.  Each table entry names a knob, parses
 * a value into a SystemConfig and prints it back; everything else is
 * derived from the table: the bench and simfuzz flags ("--" + key
 * with '_' spelled '-'), simfuzz --help, job configs, simfuzz
 * reproducers and replay commands, and the stats-v2 "config" block.
 * A knob's default is its value in SystemConfig::scaled().
 */

#ifndef PEISIM_RUNTIME_KNOBS_HH
#define PEISIM_RUNTIME_KNOBS_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/system.hh"

namespace pei
{

/** One configuration knob. */
struct Knob
{
    const char *key;  ///< reproducer and record key, e.g. "pei_batch"
    const char *help; ///< one line for --help
    /**
     * Parse a value into a config; returns "" or why the value is
     * rejected, phrased to follow the flag ("wants ..., got '3'").
     */
    std::function<std::string(SystemConfig &, const std::string &)> set;
    /** A config's value, spelled the way set() accepts it. */
    std::function<std::string(const SystemConfig &)> get;
    bool quoted; ///< JSON writes the value as a string

    /** The command-line flag, e.g. "--pei-batch". */
    std::string flag() const;
};

/** Every knob, in display order. */
const std::vector<Knob> &knobTable();

/** The knob whose key is @p key, or nullptr. */
const Knob *findKnob(const std::string &key);

/** A set of knob assignments, iterated in table order. */
class KnobSet
{
  public:
    /** Every knob's value in @p cfg. */
    static KnobSet of(const SystemConfig &cfg);

    /**
     * Validate @p value for @p knob and record it, replacing any
     * earlier assignment of that knob; returns "" or why the value
     * is rejected.
     */
    std::string assign(const Knob &knob, const std::string &value);

    /** Apply every assignment to @p cfg, in table order. */
    void applyTo(SystemConfig &cfg) const;

    /**
     * The assignments whose value differs from the knob's default.
     * Output people read shows only these; replay artifacts carry
     * every knob, since a pin at the default still overrides a
     * fuzzed draw.
     */
    KnobSet offDefault() const;

    bool empty() const { return values.empty(); }
    auto begin() const { return values.begin(); }
    auto end() const { return values.end(); }

  private:
    /** Keyed by table entry, so iteration runs in table order. */
    std::map<const Knob *, std::string> values;
};

} // namespace pei

#endif // PEISIM_RUNTIME_KNOBS_HH
