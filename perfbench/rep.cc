/**
 * @file
 * One repetition of a perfbench workload, run in its own process so
 * that the process-wide input cache and peak RSS start fresh.
 *
 * It builds the simulated machine, runs the workload to completion,
 * validates and audits it, and prints one JSON object: host timings,
 * the simulated end-to-end results, per-layer counts derived from the
 * stats registry, and the full registry for determinism checks.
 *
 * With --trace <file> it also records host-time spans around each
 * call into the simulator, samples the event queue every 2^16 events,
 * times each hot layer in isolation (layers.hh), and writes the spans
 * as Chrome trace-event JSON to <file>.
 *
 *   perfbench_rep --workload <name> [--seed <n>] [--trace <file>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "layers.hh"
#include "runtime/runtime.hh"
#include "spans.hh"
#include "workloads/workload.hh"

using namespace perfbench;

namespace
{

struct WorkloadSpec
{
    const char *name;
    pei::WorkloadKind kind;
    pei::InputSize size;
    pei::ExecMode mode;
    const char *backend;
    /** Its PEI opcode writes the target block (Table 1's W column). */
    bool writer_peis;
};

/** The benchmark's workloads (perfbench/README.md says why each). */
const WorkloadSpec workload_specs[] = {
    {"pr-medium-la", pei::WorkloadKind::PR, pei::InputSize::Medium,
     pei::ExecMode::LocalityAware, "hmc", true},
    {"bfs-large-pim", pei::WorkloadKind::BFS, pei::InputSize::Large,
     pei::ExecMode::PimOnly, "hmc", true},
    {"rp-medium-ddr-host", pei::WorkloadKind::RP, pei::InputSize::Medium,
     pei::ExecMode::HostOnly, "ddr", false},
};

using Snapshot = std::map<std::string, std::uint64_t>;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** True if @p name is @p prefix, one or more digits, then @p suffix. */
bool
indexed(const std::string &name, const std::string &prefix,
        const std::string &suffix)
{
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0)
        return false;
    const std::size_t end = name.size() - suffix.size();
    for (std::size_t i = prefix.size(); i < end; ++i) {
        if (name[i] < '0' || name[i] > '9')
            return false;
    }
    return true;
}

/** Sum of the counters "<prefix>N<suffix>" over every index N. */
double
sumOf(const Snapshot &snap, const std::string &prefix,
      const std::string &suffix)
{
    double sum = 0;
    for (const auto &[name, value] : snap)
        sum += indexed(name, prefix, suffix) ? static_cast<double>(value) : 0;
    return sum;
}

/** Largest counter "<prefix>N<suffix>". */
double
maxOf(const Snapshot &snap, const std::string &prefix,
      const std::string &suffix)
{
    double best = 0;
    for (const auto &[name, value] : snap) {
        if (indexed(name, prefix, suffix))
            best = std::max(best, static_cast<double>(value));
    }
    return best;
}

/** Counter @p name, or 0 where the configuration has no such part. */
double
optional(const Snapshot &snap, const std::string &name)
{
    const auto it = snap.find(name);
    return it == snap.end() ? 0.0 : static_cast<double>(it->second);
}

/** Percentile of histogram @p name, or 0 if it is not registered. */
double
percentile(const pei::StatRegistry &stats, const std::string &name,
           double p)
{
    return stats.hasHistogram(name) ? stats.histogram(name).percentile(p)
                                    : 0.0;
}

/** Everything one repetition measured. */
struct Outcome
{
    bool ok = false;
    std::string error;
    std::map<std::string, double> host;       ///< host timings
    std::map<std::string, double> sim;        ///< end-to-end sim results
    std::map<std::string, double> layer;      ///< per-layer counts
    std::map<std::string, double> layer_host; ///< traced host costs
    std::string stats_json;                   ///< the full registry
};

/** Per-layer counts of a finished run (see perfbench/README.md). */
void
collectLayers(pei::System &sys, const Snapshot &snap, Outcome &out)
{
    const pei::StatRegistry &st = sys.stats();
    const auto get = [&st](const char *name) {
        return static_cast<double>(st.get(name));
    };
    const double ticks = static_cast<double>(sys.now());
    auto &l = out.layer;
    l["sim.events"] = static_cast<double>(sys.eventQueue().executedCount());
    l["cpu.retired_ops"] = sumOf(snap, "core", ".retired_ops");
    l["cpu.window_stalls"] = sumOf(snap, "core", ".window_stalls");

    l["cache.l1_accesses"] = get("cache.l1_accesses");
    l["cache.l1_miss_rate"] =
        ratio(get("cache.l1_misses"), get("cache.l1_accesses"));
    l["cache.l3_miss_rate"] =
        ratio(get("cache.l3_misses"), get("cache.l3_accesses"));
    l["cache.l3_mshr_coalesced"] = get("cache.l3_mshr_coalesced");
    l["cache.writebacks_mem"] = get("cache.writebacks_mem");
    l["cache.back_invalidations"] = get("cache.back_invalidations");

    l["pim.peis"] = get("pmu.peis_issued");
    l["pim.mem_frac"] = ratio(get("pmu.peis_mem"), get("pmu.peis_issued"));
    l["pim.monitor_hit_rate"] = ratio(optional(snap, "loc_mon.hits"),
                                      optional(snap, "loc_mon.lookups"));
    l["pim.dir_conflicts"] = get("pim_dir.conflicts");
    l["pim.dir_false_conflict_frac"] =
        ratio(get("pim_dir.false_conflicts"), get("pim_dir.conflicts"));
    l["pim.dir_wait_p99_ticks"] = percentile(st, "pmu.dir_wait_ticks", 0.99);
    l["pim.pei_latency_p50_ticks"] =
        percentile(st, "pmu.pei_latency_ticks", 0.50);
    l["pim.pei_latency_p99_ticks"] =
        percentile(st, "pmu.pei_latency_ticks", 0.99);
    l["pim.host_pcu_stalls"] = sumOf(snap, "host_pcu", ".buffer_stalls");
    l["pim.mem_pcu_stalls"] = sumOf(snap, "mem_pcu", ".buffer_stalls");

    l["coh.actions"] = optional(snap, "coh.actions");
    l["coh.offchip_flits"] = optional(snap, "coh.offchip_flits");

    l["net.req_flits"] = optional(snap, "net.req.flits");
    l["net.res_flits"] = optional(snap, "net.res.flits");
    l["net.link_util_max"] = ratio(maxOf(snap, "link", ".busy_ticks"), ticks);

    const double row_hits =
        sumOf(snap, "vault", ".row_hits") + sumOf(snap, "chan", ".row_hits");
    const double activates = sumOf(snap, "vault", ".activates") +
                             sumOf(snap, "chan", ".activates");
    const std::string backend = sys.mem().kind();
    l["mem.reads"] = static_cast<double>(sys.mem().memReads());
    l["mem.writes"] = static_cast<double>(sys.mem().memWrites());
    l["mem.row_hit_rate"] = ratio(row_hits, row_hits + activates);
    l["mem.read_p99_ticks"] = percentile(st, backend + ".read_ticks", 0.99);
    l["mem.pim_roundtrip_p99_ticks"] =
        percentile(st, backend + ".pim_roundtrip_ticks", 0.99);
    // The busiest channel's median queue depth.
    double ddr_queue = 0;
    for (unsigned c = 0; st.hasHistogram("chan" + std::to_string(c) +
                                         ".queue_depth");
         ++c) {
        ddr_queue = std::max(
            ddr_queue,
            percentile(st, "chan" + std::to_string(c) + ".queue_depth", 0.5));
    }
    l["mem.ddr_queue_p50"] = ddr_queue;
    l["mem.ddr_retry_stale"] = sumOf(snap, "chan", ".retry_stale");
}

/** Median of @p v (0 if empty). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Event-queue depth and rate steadiness from the boundary samples. */
void
collectQueueSamples(const std::vector<QueueSample> &samples, Outcome &out)
{
    std::vector<double> pending, rates;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        pending.push_back(static_cast<double>(samples[i].pending));
        if (i == 0)
            continue;
        const double dt = seconds(samples[i].host - samples[i - 1].host);
        if (dt > 0) {
            rates.push_back(static_cast<double>(samples[i].executed -
                                                samples[i - 1].executed) /
                            dt);
        }
    }
    auto &h = out.layer_host;
    h["sim.pending_p50"] = median(pending);
    h["sim.pending_max"] =
        pending.empty() ? 0.0 : *std::max_element(pending.begin(),
                                                  pending.end());
    // Interquartile spread of events/s across the run, as a share of
    // its median: a steady simulator keeps this small.
    std::sort(rates.begin(), rates.end());
    if (rates.size() >= 4) {
        const double q1 = rates[rates.size() / 4];
        const double q3 = rates[rates.size() * 3 / 4];
        h["sim.rate_iqr_frac"] = ratio(q3 - q1, median(rates));
    }
}

/** Host seconds each layer is estimated to take (ns/call × calls). */
void
estimateLayers(const LayerCosts &c, const Snapshot &snap, Outcome &out)
{
    const double ns = 1e-9;
    auto &h = out.layer_host;
    const auto &l = out.layer;
    h["sim.queue_ns_per_event"] = c.queue_ns_per_event;
    h["sim.host_s_est"] = c.queue_ns_per_event * l.at("sim.events") * ns;
    const double translations = sumOf(snap, "core", ".loads") +
                                sumOf(snap, "core", ".stores") +
                                sumOf(snap, "core", ".peis");
    h["cpu.tlb_ns_per_access"] = c.tlb_ns_per_access;
    h["cpu.tlb_host_s_est"] = c.tlb_ns_per_access * translations * ns;
    h["cache.access_ns"] = c.cache_access_ns;
    h["cache.host_s_est"] =
        c.cache_access_ns * l.at("cache.l1_accesses") * ns;
    h["pim.dir_ns_per_op"] = c.dir_ns_per_op;
    h["pim.monitor_ns_per_lookup"] = c.monitor_ns_per_lookup;
    h["pim.host_s_est"] =
        (c.dir_ns_per_op * optional(snap, "pim_dir.acquires") +
         c.monitor_ns_per_lookup * optional(snap, "loc_mon.lookups")) *
        ns;
    const double vault_ops =
        sumOf(snap, "vault", ".reads") + sumOf(snap, "vault", ".writes");
    const double chan_ops =
        sumOf(snap, "chan", ".reads") + sumOf(snap, "chan", ".writes");
    h["mem.vault_ns_per_access"] = c.vault_ns_per_access;
    h["mem.ddr_ns_per_access"] = c.ddr_ns_per_access;
    h["mem.host_s_est"] = (c.vault_ns_per_access * vault_ops +
                           c.ddr_ns_per_access * chan_ops) *
                          ns;
}

/** Stream sizes for the layer timings, taken from the finished run. */
LayerInputs
layerInputs(const WorkloadSpec &spec, pei::System &sys, const Snapshot &snap,
            const Outcome &out)
{
    LayerInputs in;
    in.writer_peis = spec.writer_peis;
    in.footprint_bytes = sys.memory().allocatedBytes();
    const double loads = sumOf(snap, "core", ".loads");
    const double stores = sumOf(snap, "core", ".stores");
    in.store_share = ratio(stores, loads + stores);
    const double writes =
        sumOf(snap, "vault", ".writes") + sumOf(snap, "chan", ".writes");
    const double reads =
        sumOf(snap, "vault", ".reads") + sumOf(snap, "chan", ".reads");
    in.mem_write_share = ratio(writes, reads + writes);
    in.pending_events =
        static_cast<std::uint64_t>(out.layer_host.at("sim.pending_p50"));
    in.ddr_queue_depth =
        static_cast<std::uint64_t>(out.layer.at("mem.ddr_queue_p50") + 0.5);
    return in;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Outcome
runRepetition(const WorkloadSpec &spec, std::uint64_t seed,
              const std::string &trace_path)
{
    const bool traced = !trace_path.empty();
    SpanLog spans(traced);
    std::vector<QueueSample> samples;
    Outcome out;
    auto &host = out.host;

    pei::SystemConfig cfg = pei::SystemConfig::scaled(spec.mode);
    cfg.mem_backend = spec.backend;
    std::unique_ptr<pei::System> sys;
    std::unique_ptr<pei::Runtime> rt;
    std::unique_ptr<pei::Workload> w;
    bool valid = false;
    std::string msg;
    std::vector<std::string> violations;
    Snapshot snap;
    pei::EnergyBreakdown energy;

    host["wall_s"] = spans.time("rep", [&] {
        host["runtime.construct_s"] = spans.time("runtime.construct", [&] {
            sys = std::make_unique<pei::System>(cfg);
            rt = std::make_unique<pei::Runtime>(*sys);
        });
        host["workloads.setup_s"] = spans.time("workloads.setup", [&] {
            w = pei::makeWorkload(spec.kind, spec.size, seed);
            w->setup(*rt);
            w->spawn(*rt, sys->numCores());
        });
        pei::EventQueue &eq = sys->eventQueue();
        if (traced) {
            samples.reserve(1 << 12);
            eq.setBoundaryProbe(
                [&samples, &eq] {
                    samples.push_back(QueueSample{Clock::now(),
                                                  eq.executedCount(),
                                                  eq.now(), eq.size()});
                },
                1 << 16);
        }
        host["run_s"] = spans.time("runtime.run", [&] { rt->run(); });
        eq.setBoundaryProbe(nullptr);
        host["workloads.validate_s"] = spans.time(
            "workloads.validate", [&] { valid = w->validate(*sys, msg); });
        host["stats.audit_s"] = spans.time("stats.audit", [&] {
            violations = sys->stats().audit();
            snap = sys->stats().snapshot();
            energy = pei::computeEnergy(sys->stats());
        });
    });
    host["setup_s"] = host["runtime.construct_s"] + host["workloads.setup_s"];
    host["peak_rss_mb"] = peakRssMb();

    if (!valid)
        out.error = std::string(w->name()) + " validation failed: " + msg;
    for (const std::string &v : violations)
        out.error += (out.error.empty() ? "" : "; ") + ("audit: " + v);
    out.ok = out.error.empty();

    // Off-chip bytes: the packetized link's request + response bytes,
    // or 64 B per data-bus transfer on a backend with no link (DDR).
    double offchip = static_cast<double>(sys->mem().offChipBytes());
    if (offchip == 0) {
        offchip = static_cast<double>(sys->mem().memReads() +
                                      sys->mem().memWrites()) *
                  pei::block_size;
    }
    out.sim["sim_ticks"] = static_cast<double>(sys->now());
    out.sim["offchip_bytes"] = offchip;
    out.sim["energy_uj"] = energy.total() * 1e-6; // pJ -> uJ
    collectLayers(*sys, snap, out);
    out.stats_json = sys->stats().toJson();

    if (traced) {
        out.layer_host["sim.ns_per_event"] =
            host["run_s"] * 1e9 / out.layer.at("sim.events");
        for (const char *name : {"workloads.setup_s", "runtime.construct_s",
                                 "workloads.validate_s", "stats.audit_s"})
            out.layer_host[name] = host[name];
        collectQueueSamples(samples, out);
        const LayerInputs in = layerInputs(spec, *sys, snap, out);
        w.reset();
        rt.reset();
        sys.reset();
        LayerCosts costs;
        spans.time("layers",
                   [&] { costs = measureLayers(cfg, in, seed, spans); });
        estimateLayers(costs, snap, out);
        spans.writeChromeTrace(trace_path, samples);
    }
    return out;
}

void
writeObject(std::ostream &os, const std::map<std::string, double> &m)
{
    os << "{";
    const char *sep = "";
    for (const auto &[k, v] : m) {
        os << sep << "\"" << k << "\":" << v;
        sep = ",";
    }
    os << "}";
}

/** JSON string literal of @p s. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_rep: %s\nusage: perfbench_rep --workload "
                 "<name> [--seed <n>] [--trace <file>]\nworkloads:",
                 why);
    for (const WorkloadSpec &s : workload_specs)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name, trace_path;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
            name = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0')
                return usage("--seed wants a non-negative integer");
        } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
            trace_path = argv[++i];
        } else {
            return usage((std::string("bad argument ") + argv[i]).c_str());
        }
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workload_specs) {
        if (name == s.name)
            spec = &s;
    }
    if (!spec)
        return usage(("unknown workload '" + name + "'").c_str());

    Outcome out;
    try {
        out = runRepetition(*spec, seed, trace_path);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = std::string("exception: ") + e.what();
    }

    std::ostringstream os;
    os << std::setprecision(17) << "{\"ok\":" << (out.ok ? "true" : "false")
       << ",\"error\":" << jsonString(out.error) << ",\"host\":";
    writeObject(os, out.host);
    os << ",\"sim\":";
    writeObject(os, out.sim);
    os << ",\"layer\":";
    writeObject(os, out.layer);
    os << ",\"layer_host\":";
    writeObject(os, out.layer_host);
    os << ",\"stats\":" << (out.stats_json.empty() ? "{}" : out.stats_json)
       << "}\n";
    std::fputs(os.str().c_str(), stdout);
    return out.ok ? 0 : 1;
}
