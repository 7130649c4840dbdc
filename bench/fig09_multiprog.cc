/**
 * @file
 * Figure 9: multiprogrammed workloads — pairs of applications with
 * randomly chosen input sizes, each spawning eight threads on its
 * own half of the cores.  Metric: system throughput (sum-of-IPC
 * proxy: retired operations per kilotick), normalized to Host-Only.
 *
 * Paper: across 200 random pairs, Locality-Aware outperforms both
 * Host-Only and PIM-Only for the overwhelming majority of mixes —
 * per-cache-block locality tracking works even when applications
 * with different locality behaviour share the machine.  (We run a
 * reduced deterministic sample of pairs to keep the bench fast;
 * sizes are drawn from small/medium.)
 */

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/rng.hh"
#include "runtime/runtime.hh"

using namespace peibench;

namespace
{

/** Two workloads share one System, eight cores each. */
RunResult
runPair(WorkloadKind ka, InputSize sa, WorkloadKind kb, InputSize sb,
        ExecMode mode, const std::string &label, JobCtx &ctx)
{
    System sys(config(mode));
    Runtime rt(sys);
    auto wa = makeWorkload(ka, sa, 11);
    auto wb = makeWorkload(kb, sb, 13);
    wa->setup(rt);
    wb->setup(rt);
    wa->spawn(rt, 8, 0);
    wb->spawn(rt, 8, 8);

    const double wall = runWatched(rt, ctx);

    std::string msg;
    if (!wa->validate(sys, msg) || !wb->validate(sys, msg))
        throw std::runtime_error("pair validation failed: " + msg);

    RunResult r;
    collectRun(sys, r, wall, label);
    return r;
}

RunHandle
submitPair(WorkloadKind ka, InputSize sa, WorkloadKind kb, InputSize sb,
           ExecMode mode)
{
    const std::string label = std::string(kindName(ka)) + "/" +
                              sizeName(sa) + "+" + kindName(kb) + "/" +
                              sizeName(sb) + "/" + execModeName(mode);
    return submitCustom(label, [=](JobCtx &ctx) {
        return runPair(ka, sa, kb, sb, mode, label, ctx);
    });
}

} // namespace

Renderer
fig09Multiprog()
{
    constexpr int pairs = 10;
    Rng rng(2015);
    const auto &kinds = allWorkloadKinds();

    struct Mix
    {
        WorkloadKind ka, kb;
        InputSize sa, sb;
        RunHandle host, pim, la;
    };
    std::vector<Mix> mixes;
    for (int i = 0; i < pairs; ++i) {
        Mix m;
        m.ka = kinds[rng.below(kinds.size())];
        m.kb = kinds[rng.below(kinds.size())];
        m.sa = rng.chance(0.5) ? InputSize::Small : InputSize::Medium;
        m.sb = rng.chance(0.5) ? InputSize::Small : InputSize::Medium;
        m.host = submitPair(m.ka, m.sa, m.kb, m.sb, ExecMode::HostOnly);
        m.pim = submitPair(m.ka, m.sa, m.kb, m.sb, ExecMode::PimOnly);
        m.la = submitPair(m.ka, m.sa, m.kb, m.sb,
                          ExecMode::LocalityAware);
        mixes.push_back(m);
    }
    return [mixes] {
        printHeader(
            "Figure 9", "Multiprogrammed workload pairs (throughput vs "
                        "Host-Only)",
            "Locality-Aware beats both static configurations for the "
            "overwhelming majority of random mixes");

        std::printf("%-24s | %9s %9s %9s\n", "pair", "host-only", "pim-only",
                    "loc-aware");
        int la_best = 0, rendered = 0;
        for (const Mix &m : mixes) {
            if (!allOk({m.host, m.pim, m.la}))
                continue;
            const double host = result(m.host).opsPerKilotick();
            const double pim = result(m.pim).opsPerKilotick();
            const double la = result(m.la).opsPerKilotick();

            char label[64];
            std::snprintf(label, sizeof(label), "%s/%s + %s/%s",
                          kindName(m.ka), sizeName(m.sa), kindName(m.kb),
                          sizeName(m.sb));
            std::printf("%-24s | %9.3f %9.3f %9.3f%s\n", label, 1.0,
                        pim / host, la / host,
                        (la >= host && la >= pim) ? "  <- LA best" : "");
            la_best += (la >= host && la >= pim);
            ++rendered;
        }
        std::printf("\nLocality-Aware best or tied in %d of %d mixes.\n",
                    la_best, rendered);
    };
}
