/**
 * @file
 * Command-line options shared by every sweep-driving binary:
 *
 *   --jobs N        worker threads (default: hardware_concurrency)
 *   --timeout-s S   per-job wall-clock timeout (default: none)
 *   --filter SUBSTR run only jobs whose label contains SUBSTR
 *   --list          print job labels and exit without running
 *   --no-progress   suppress the live progress line on stderr
 *
 * plus one flag per configuration knob (runtime/knobs.hh).  Both
 * "--flag value" and "--flag=value" spellings are accepted.  A binary
 * names the flags it parses itself (e.g. --stats-json); any other
 * argument is an error.
 */

#ifndef PEISIM_DRIVER_OPTIONS_HH
#define PEISIM_DRIVER_OPTIONS_HH

#include <string>
#include <vector>

#include "runtime/knobs.hh"

namespace pei
{

struct SweepOptions
{
    unsigned jobs = 0;      ///< 0 = hardware_concurrency
    double timeout_s = 0.0; ///< 0 = no timeout
    std::string filter;     ///< empty = run everything
    KnobSet knobs;          ///< knob flags; unset knobs keep job defaults
    bool list = false;
    bool progress = true;
};

/** A flag a binary parses itself, next to the sweep flags. */
struct OwnFlag
{
    const char *name; ///< e.g. "--stats-json"
    bool takes_value; ///< "--name v" / "--name=v", else a bare switch
    std::string *value = nullptr; ///< receives the value, if set
};

/**
 * Parse the sweep flags out of @p argv.  Arguments named in @p own
 * are stored through their value pointer, if any, or skipped; any
 * other argument, or a malformed value, is fatal.
 */
SweepOptions sweepOptionsFromArgs(int argc, char **argv,
                                  const std::vector<OwnFlag> &own = {});

/** Worker count @p opts asks for (resolves 0 to the host's cores). */
unsigned resolveWorkerCount(const SweepOptions &opts);

} // namespace pei

#endif // PEISIM_DRIVER_OPTIONS_HH
