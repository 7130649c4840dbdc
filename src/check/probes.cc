#include "probes.hh"

#include <memory>

#include "cache/cache_array.hh"

namespace pei
{
namespace fuzz
{

namespace
{

/** High-water marks for the link-conservation (monotonicity) check. */
struct LinkWatermark
{
    std::uint64_t req_flits = 0;
    std::uint64_t req_bytes = 0;
    std::uint64_t res_flits = 0;
    std::uint64_t res_bytes = 0;
};

void
checkLinkDirection(const char *dir, std::uint64_t flits,
                   std::uint64_t bytes, std::uint64_t &last_flits,
                   std::uint64_t &last_bytes)
{
    if (flits < last_flits || bytes < last_bytes) {
        throw FuzzViolation(
            std::string("link conservation: ") + dir +
            " counters went backwards (flits " + std::to_string(flits) +
            " < " + std::to_string(last_flits) + " or bytes " +
            std::to_string(bytes) + " < " + std::to_string(last_bytes) +
            ")");
    }
    last_flits = flits;
    last_bytes = bytes;
    if (bytes > 16 * flits) {
        throw FuzzViolation(std::string("link conservation: ") + dir +
                            " carried " + std::to_string(bytes) +
                            " bytes in " + std::to_string(flits) +
                            " flits (> 16 B/flit)");
    }
    if (flits > bytes) {
        throw FuzzViolation(std::string("link conservation: ") + dir +
                            " used " + std::to_string(flits) +
                            " flits for only " + std::to_string(bytes) +
                            " bytes (empty flits)");
    }
}

void
checkOnce(System &sys, LinkWatermark *wm)
{
    // MESI inclusion + L3-directory agreement.
    const std::string cache_v = sys.caches().invariantViolation();
    if (!cache_v.empty())
        throw FuzzViolation("cache invariant: " + cache_v);

    // PIM-directory holder bookkeeping.
    Pmu &pmu = sys.pmu();
    const std::string dir_v = pmu.directory().probeViolation();
    if (!dir_v.empty())
        throw FuzzViolation("pim directory: " + dir_v);

    // Operand-buffer occupancy bounds.
    for (unsigned c = 0; c < pmu.numHostPcus(); ++c) {
        const Pcu &pcu = pmu.hostPcu(c);
        if (pcu.entriesInUse() > pcu.bufferCapacity()) {
            throw FuzzViolation(
                "host PCU " + std::to_string(c) + " occupancy " +
                std::to_string(pcu.entriesInUse()) + " exceeds capacity " +
                std::to_string(pcu.bufferCapacity()));
        }
    }
    for (unsigned v = 0; v < pmu.numMemPcus(); ++v) {
        const Pcu &pcu = pmu.memPcu(v);
        if (pcu.entriesInUse() > pcu.bufferCapacity()) {
            throw FuzzViolation(
                "mem PCU " + std::to_string(v) + " occupancy " +
                std::to_string(pcu.entriesInUse()) + " exceeds capacity " +
                std::to_string(pcu.bufferCapacity()));
        }
    }

    // Off-chip link flit/byte conservation.
    if (wm) {
        checkLinkDirection("request link", sys.mem().requestFlits(),
                           sys.mem().requestBytes(), wm->req_flits,
                           wm->req_bytes);
        checkLinkDirection("response link", sys.mem().responseFlits(),
                           sys.mem().responseBytes(), wm->res_flits,
                           wm->res_bytes);
    }

    // Offload coherence windows (Fig. 5 step ③): the target of an
    // offloaded writer PEI must stay uncached until it retires; the
    // target of an offloaded reader PEI may stay cached but clean.
    pmu.forEachMemWriterBlock([&sys](Addr block) {
        if (sys.caches().contains(block << block_shift)) {
            throw FuzzViolation(
                "stale copy: block of an in-flight memory-side writer "
                "PEI is still cached (back-invalidation skipped?)");
        }
    });
    pmu.forEachMemReaderBlock([&sys](Addr block) {
        for (unsigned c = 0; c < sys.numCores(); ++c) {
            if (sys.caches().l1State(c, block << block_shift) ==
                    MesiState::Modified ||
                sys.caches().l2State(c, block << block_shift) ==
                    MesiState::Modified) {
                throw FuzzViolation(
                    "dirty copy: block of an in-flight memory-side "
                    "reader PEI is Modified in core " +
                    std::to_string(c) + " (back-writeback skipped?)");
            }
        }
    });
}

} // namespace

void
checkProbesNow(System &sys)
{
    checkOnce(sys, nullptr);
}

void
installProbes(System &sys, std::uint64_t every)
{
    auto wm = std::make_shared<LinkWatermark>();
    System *s = &sys;
    sys.eventQueue().setBoundaryProbe(
        [s, wm]() { checkOnce(*s, wm.get()); }, every);
}

} // namespace fuzz
} // namespace pei
