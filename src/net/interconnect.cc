#include "interconnect.hh"

#include <algorithm>
#include <cmath>

namespace pei
{

namespace
{

double
bytesPerTick(double gbps)
{
    return gbps * 1e9 / static_cast<double>(ticks_per_second);
}

} // namespace

NetLink::NetLink(const std::string &name, double bytes_per_tick,
                 StatRegistry &stats)
    : bytes_per_tick(bytes_per_tick)
{
    stats.add(name + ".flits", &stat_flits);
    stats.add(name + ".bytes", &stat_bytes);
    stats.add(name + ".busy_ticks", &stat_busy);
}

Tick
NetLink::transmit(unsigned flits, unsigned wire_bytes, Tick earliest)
{
    const Tick start = std::max(earliest, free_at);
    const auto duration = static_cast<Ticks>(
        std::ceil(static_cast<double>(wire_bytes) / bytes_per_tick));
    free_at = start + duration;
    stat_flits += flits;
    stat_bytes += wire_bytes;
    stat_busy += duration;
    return free_at;
}

Interconnect::Interconnect(EventQueue &eq, const HmcLinkConfig &cfg,
                           StatRegistry &stats)
    : eq(eq), flit_bytes(cfg.flit_bytes),
      prop_latency(nsToTicks(cfg.latency_ns)),
      hop_latency(nsToTicks(cfg.hop_ns)),
      link0("link0", bytesPerTick(cfg.gbps), stats),
      link1("link1", bytesPerTick(cfg.gbps), stats)
{
    stats.add("net.req.flits", &stat_req_flits);
    stats.add("net.req.bytes", &stat_req_bytes);
    stats.add("net.res.flits", &stat_res_flits);
    stats.add("net.res.bytes", &stat_res_bytes);
    stats.add("net.req_hops", &stat_req_hops);
    stats.add("net.res_hops", &stat_res_hops);
    stats.add("net.trains.req", &stat_train_req);
    stats.add("net.trains.res", &stat_train_res);
    stats.add("net.trains.peis", &stat_train_peis);
    // Train conservation: a train carries at least two PEIs (window
    // singletons dispatch as plain packets), so the PEI total must
    // dominate the train count.
    stats.addInvariant(
        "net.trains.peis >= 2 * net.trains.req",
        [this] {
            if (stat_train_peis.value() >= 2 * stat_train_req.value())
                return std::string();
            return "train peis=" + std::to_string(stat_train_peis.value()) +
                   " < 2 * trains=" +
                   std::to_string(stat_train_req.value());
        });
    // Flit conservation per direction: every injected flit crosses
    // exactly its direction's link once.
    stats.addInvariant("link0.flits == net.req.flits", [this] {
        if (link0.flits() == stat_req_flits.value())
            return std::string();
        return "link0 flits=" + std::to_string(link0.flits()) +
               " != injected request flits=" +
               std::to_string(stat_req_flits.value());
    });
    stats.addInvariant("link1.flits == net.res.flits", [this] {
        if (link1.flits() == stat_res_flits.value())
            return std::string();
        return "link1 flits=" + std::to_string(link1.flits()) +
               " != injected response flits=" +
               std::to_string(stat_res_flits.value());
    });
}

Tick
Interconnect::send(NetLink &link, unsigned flits, unsigned cube)
{
    return link.transmit(flits, flits * flit_bytes, eq.now()) +
           ackLatency(cube);
}

Tick
Interconnect::sendRequest(unsigned bytes, unsigned cube)
{
    const unsigned flits = flitsOf(bytes);
    stat_req_flits += flits;
    stat_req_bytes += flits * flit_bytes;
    stat_req_hops += cube;
    ema_req.add(flits, eq.now());
    return send(link0, flits, cube);
}

Tick
Interconnect::sendResponse(unsigned bytes, unsigned cube)
{
    const unsigned flits = flitsOf(bytes);
    stat_res_flits += flits;
    stat_res_bytes += flits * flit_bytes;
    stat_res_hops += cube;
    ema_res.add(flits, eq.now());
    return send(link1, flits, cube);
}

Tick
Interconnect::sendRequestTrain(unsigned bytes, unsigned peis,
                               unsigned cube)
{
    ++stat_train_req;
    stat_train_peis += peis;
    return sendRequest(bytes, cube);
}

Tick
Interconnect::sendResponseTrain(unsigned bytes, unsigned cube)
{
    ++stat_train_res;
    return sendResponse(bytes, cube);
}

Ticks
Interconnect::ackLatency(unsigned cube) const
{
    // The daisy chain: propagation, plus one hop per cube passed.
    return prop_latency + hop_latency * cube;
}

unsigned
Interconnect::flitsOf(unsigned bytes) const
{
    return (bytes + flit_bytes - 1) / flit_bytes;
}

} // namespace pei
