/**
 * @file
 * stats-v2 run records: a machine-readable JSON summary of one
 * simulation run ({config, counters, histograms, sim_ticks,
 * wall_seconds, events_per_sec}).  Every bench and example binary
 * accepts `--stats-json <path>` and dumps its records there.
 */

#ifndef PEISIM_RUNTIME_REPORT_HH
#define PEISIM_RUNTIME_REPORT_HH

#include <string>
#include <vector>

#include "runtime/system.hh"

namespace pei
{

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** The "config" object of a run record. */
std::string systemConfigJson(const SystemConfig &cfg);

/**
 * One run record for @p sys after a completed run:
 * {label, config, sim_ticks, events, wall_seconds, events_per_sec,
 *  counters, histograms}.
 */
std::string runRecordJson(System &sys, double wall_seconds,
                          const std::string &label);

/**
 * Extract the `--stats-json <path>` (or `--stats-json=<path>`)
 * argument; returns "" when absent.
 */
std::string statsJsonPathFromArgs(int argc, char **argv);

/** Write @p json to @p path verbatim (fatal on I/O failure). */
void writeStatsJson(const std::string &path, const std::string &json);

/**
 * Wrap @p records into the top-level stats-v2 document
 * {"tool": tool, "records": [...], "failures": [...]} and write it
 * to @p path.  @p failures are records built with failureRecordJson,
 * so aborted or timed-out sweep jobs stay visible; @p extra_members
 * is a comma-separated sequence of `"key":value` JSON members, e.g.
 * `"input_cache":{"hits":3,...}`, spliced in after "failures".
 */
void writeRunRecords(const std::string &path, const std::string &tool,
                     const std::vector<std::string> &records,
                     const std::vector<std::string> &failures = {},
                     const std::string &extra_members = "");

} // namespace pei

#endif // PEISIM_RUNTIME_REPORT_HH
