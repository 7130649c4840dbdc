#include "interconnect.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pei
{

const char *
topologyName(Topology t)
{
    switch (t) {
      case Topology::Chain: return "chain";
      case Topology::Ring: return "ring";
      case Topology::Mesh: return "mesh";
    }
    return "?";
}

bool
parseTopology(const std::string &name, Topology &out)
{
    if (name == "chain") {
        out = Topology::Chain;
        return true;
    }
    if (name == "ring") {
        out = Topology::Ring;
        return true;
    }
    if (name == "mesh") {
        out = Topology::Mesh;
        return true;
    }
    return false;
}

std::vector<std::string>
topologyNames()
{
    return {"chain", "ring", "mesh"};
}

unsigned
meshCols(unsigned cubes)
{
    if (cubes <= 1)
        return 1;
    // Power-of-two cube counts split into the squarest cols >= rows
    // grid: 2 -> 2x1, 4 -> 2x2, 8 -> 4x2, 16 -> 4x4, ...
    return 1u << ((floorLog2(cubes) + 1) / 2);
}

NetLink::NetLink(const std::string &name, double bytes_per_tick,
                 StatRegistry &stats)
    : name_(name), bytes_per_tick(bytes_per_tick)
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

Interconnect::Interconnect(EventQueue &eq, const NetConfig &cfg,
                           StatRegistry &stats)
    : eq(eq), cfg(cfg), stats(stats)
{
    fatal_if(cfg.cubes == 0 || !isPowerOf2(cfg.cubes),
             "interconnect wants a power-of-two cube count, got %u",
             cfg.cubes);
    bytes_per_tick =
        cfg.gbps * 1e9 / static_cast<double>(ticks_per_second);
    prop_latency = nsToTicks(cfg.latency_ns);
    hop_latency = nsToTicks(cfg.hop_ns);

    req_routes.resize(cfg.cubes);
    res_routes.resize(cfg.cubes);
    switch (cfg.topology) {
      case Topology::Chain: buildChain(); break;
      case Topology::Ring: buildRing(); break;
      case Topology::Mesh: buildMesh(); break;
    }

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
    // Flit conservation: every flit a packet injects is charged to
    // exactly the links its static route crosses — a mismatch means a
    // route double-charged or skipped a link.
    stats.addInvariant(
        "net.per-link flits == routed link traversals",
        [this] {
            std::uint64_t link_flits = 0;
            for (const auto &l : links)
                link_flits += l->flits();
            if (link_flits == traversal_flits)
                return std::string();
            return "per-link flits=" + std::to_string(link_flits) +
                   " != routed traversals=" +
                   std::to_string(traversal_flits);
        });
}

unsigned
Interconnect::addLink(const std::string &name)
{
    links.push_back(
        std::make_unique<NetLink>(name, bytes_per_tick, stats));
    return static_cast<unsigned>(links.size() - 1);
}

void
Interconnect::buildChain()
{
    // The paper's daisy chain: one serialized channel per direction
    // spans every cube; a packet to/from cube c pays the propagation
    // latency plus c hop latencies (HmcLink-identical timing).
    const unsigned req = addLink("link0");
    const unsigned res = addLink("link1");
    for (unsigned c = 0; c < cfg.cubes; ++c) {
        req_routes[c].path = {{req, prop_latency + hop_latency * c}};
        req_routes[c].hops = c;
        res_routes[c].path = {{res, prop_latency + hop_latency * c}};
        res_routes[c].hops = c;
    }
}

void
Interconnect::buildRing()
{
    // Host attaches at cube 0 over a dedicated link pair; the cubes
    // form a bidirectional ring (one serialized channel per direction
    // per edge) routed shortest-direction, clockwise on ties.
    const unsigned C = cfg.cubes;
    const unsigned host_req = addLink("link0");
    const unsigned host_res = addLink("link1");
    std::vector<unsigned> cw(C), ccw(C);
    if (C > 1) {
        for (unsigned i = 0; i < C; ++i)
            cw[i] = addLink("link" + std::to_string(links.size()));
        for (unsigned i = 0; i < C; ++i)
            ccw[i] = addLink("link" + std::to_string(links.size()));
    }
    for (unsigned c = 0; c < C; ++c) {
        Route &req = req_routes[c];
        Route &res = res_routes[c];
        req.path = {{host_req, prop_latency}};
        const unsigned cw_dist = c;
        const unsigned ccw_dist = C - c;
        if (c == 0) {
            res.path = {{host_res, prop_latency}};
            continue;
        }
        if (cw_dist <= ccw_dist) {
            // Requests ride clockwise 0 -> c; responses retrace
            // counter-clockwise c -> 0.
            for (unsigned i = 0; i < cw_dist; ++i)
                req.path.push_back({cw[i], hop_latency});
            for (unsigned i = c; i > 0; --i)
                res.path.push_back({ccw[i], hop_latency});
            req.hops = res.hops = cw_dist;
        } else {
            // Counter-clockwise 0 -> C-1 -> ... -> c is shorter.
            unsigned at = 0;
            for (unsigned i = 0; i < ccw_dist; ++i) {
                req.path.push_back({ccw[at], hop_latency});
                at = (at + C - 1) % C;
            }
            at = c;
            for (unsigned i = 0; i < ccw_dist; ++i) {
                res.path.push_back({cw[at], hop_latency});
                at = (at + 1) % C;
            }
            res.path.push_back({host_res, prop_latency});
            req.hops = res.hops = ccw_dist;
            continue;
        }
        res.path.push_back({host_res, prop_latency});
    }
}

void
Interconnect::buildMesh()
{
    // cols x rows grid (cube c at row c/cols, col c%cols), host
    // attached at cube 0, XY dimension-order routing: requests move
    // east then south, responses west then north.  Each mesh edge is
    // two unidirectional serialized channels.
    const unsigned C = cfg.cubes;
    const unsigned cols = meshCols(C);
    const unsigned rows = C / cols;
    const unsigned host_req = addLink("link0");
    const unsigned host_res = addLink("link1");

    std::map<std::pair<unsigned, unsigned>, unsigned> edge;
    auto edgeLink = [&](unsigned from, unsigned to) {
        const auto key = std::make_pair(from, to);
        auto it = edge.find(key);
        if (it == edge.end()) {
            it = edge.emplace(key, addLink("link" +
                                           std::to_string(links.size())))
                     .first;
        }
        return it->second;
    };
    // Deterministic link numbering: enumerate each node's east, west,
    // south, north channels in node order.
    for (unsigned c = 0; c < C; ++c) {
        const unsigned row = c / cols, col = c % cols;
        if (col + 1 < cols) {
            edgeLink(c, c + 1);
            edgeLink(c + 1, c);
        }
        if (row + 1 < rows) {
            edgeLink(c, c + cols);
            edgeLink(c + cols, c);
        }
    }

    for (unsigned c = 0; c < C; ++c) {
        const unsigned row = c / cols, col = c % cols;
        Route &req = req_routes[c];
        Route &res = res_routes[c];
        req.path = {{host_req, prop_latency}};
        // East along row 0, then south down column `col`.
        for (unsigned x = 0; x < col; ++x)
            req.path.push_back({edgeLink(x, x + 1), hop_latency});
        for (unsigned y = 0; y < row; ++y)
            req.path.push_back(
                {edgeLink(y * cols + col, (y + 1) * cols + col),
                 hop_latency});
        // West along row `row`, then north up column 0.
        for (unsigned x = col; x > 0; --x)
            res.path.push_back(
                {edgeLink(row * cols + x, row * cols + x - 1),
                 hop_latency});
        for (unsigned y = row; y > 0; --y)
            res.path.push_back(
                {edgeLink(y * cols, (y - 1) * cols), hop_latency});
        res.path.push_back({host_res, prop_latency});
        req.hops = res.hops = col + row;
    }
}

Tick
Interconnect::send(const Route &route, unsigned bytes)
{
    // Store-and-forward: the packet fully serializes over each link
    // on its route, then pays that hop's exit latency before it can
    // enter the next link.
    const unsigned flits = flitsOf(bytes);
    const unsigned wire_bytes = flits * cfg.flit_bytes;
    Tick t = eq.now();
    for (const Hop &h : route.path)
        t = links[h.link]->transmit(flits, wire_bytes, t) + h.latency;
    traversal_flits +=
        static_cast<std::uint64_t>(flits) * route.path.size();
    return t;
}

Tick
Interconnect::sendRequest(unsigned bytes, unsigned cube)
{
    const Route &route = req_routes[cube];
    const unsigned flits = flitsOf(bytes);
    stat_req_flits += flits;
    stat_req_bytes += flits * cfg.flit_bytes;
    stat_req_hops += route.hops;
    return send(route, bytes);
}

Tick
Interconnect::sendResponse(unsigned bytes, unsigned cube)
{
    const Route &route = res_routes[cube];
    const unsigned flits = flitsOf(bytes);
    stat_res_flits += flits;
    stat_res_bytes += flits * cfg.flit_bytes;
    stat_res_hops += route.hops;
    return send(route, bytes);
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
    return prop_latency + hop_latency * res_routes[cube].hops;
}

unsigned
Interconnect::hopCount(unsigned cube) const
{
    return req_routes[cube].hops;
}

unsigned
Interconnect::flitsOf(unsigned bytes) const
{
    return (bytes + cfg.flit_bytes - 1) / cfg.flit_bytes;
}

} // namespace pei
