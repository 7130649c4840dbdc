/**
 * @file
 * Directed tests for the topology-aware interconnect (src/net/).
 *
 * The suite pins hand-computed hop counts and arrival ticks at the
 * default timing (40 GB/s per link = 10 B/tick, 2 ns = 8-tick
 * propagation, 1 ns = 4-tick hop) so any routing or serialization
 * change shows up as an exact-tick diff.
 */

#include <gtest/gtest.h>

#include "net/interconnect.hh"

namespace pei
{
namespace
{

NetConfig
netConfig(Topology t, unsigned cubes)
{
    NetConfig cfg;
    cfg.topology = t;
    cfg.cubes = cubes;
    return cfg; // defaults: 40 GB/s, 2 ns prop, 1 ns hop, 16 B flits
}

// ------------------------------------------------------------- chain

TEST(Interconnect, ChainMatchesDaisyChainFormula)
{
    // 16 B request from t=0: 2 ticks of serialization (16 B at
    // 10 B/tick), 8 ticks of propagation, 4 ticks per cube passed.
    for (unsigned c = 0; c < 8; ++c) {
        EventQueue eq;
        StatRegistry stats;
        Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
        EXPECT_EQ(net.sendRequest(16, c), 2u + 8u + 4u * c);
        EXPECT_EQ(net.hopCount(c), c);
    }
}

TEST(Interconnect, ChainResponseSerializesWholePacket)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
    // 80 B response = 5 flits = 8 ticks on the wire, then 8 ticks of
    // propagation from cube 0.
    EXPECT_EQ(net.sendResponse(80, 0), 8u + 8u);
    EXPECT_EQ(net.responseFlits(), 5u);
    EXPECT_EQ(net.responseBytes(), 80u);
}

TEST(Interconnect, ChainBackpressureSerializesSharedLink)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Chain, 8), stats);
    // Two 80 B requests at t=0: the second waits for the first to
    // drain the request channel (8 ticks), then pays its own 8.
    EXPECT_EQ(net.sendRequest(80, 0), 8u + 8u);
    EXPECT_EQ(net.sendRequest(80, 0), 16u + 8u);
    // The channel was busy 16 ticks total.
    EXPECT_EQ(net.link(0).busyTicks(), 16u);
    EXPECT_EQ(net.link(0).flits(), 10u);
}

// -------------------------------------------------------------- ring

TEST(Interconnect, RingRoutesShortestDirection)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Ring, 8), stats);
    // min(c, 8-c), clockwise on the tie at c=4.
    const unsigned expect[] = {0, 1, 2, 3, 4, 3, 2, 1};
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_EQ(net.hopCount(c), expect[c]) << "cube " << c;
    // Host link pair + 8 clockwise + 8 counter-clockwise edges.
    EXPECT_EQ(net.numLinks(), 18u);
}

TEST(Interconnect, RingArrivalHandComputed)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Ring, 4), stats);
    // 16 B request to cube 2 (2 clockwise hops), store-and-forward:
    //   host link: 2 serialize + 8 prop   -> 10
    //   edge 0->1: 2 serialize + 4 hop    -> 16
    //   edge 1->2: 2 serialize + 4 hop    -> 22
    EXPECT_EQ(net.sendRequest(16, 2), 22u);
    // A posted ack from cube 2 skips serialization: 8 + 2*4.
    EXPECT_EQ(net.ackLatency(2), 16u);
}

// -------------------------------------------------------------- mesh

TEST(Interconnect, MeshXyRoutingHopCounts)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 8), stats);
    // 8 cubes = 4x2 grid; hops = col + row under XY routing.
    const unsigned expect[] = {0, 1, 2, 3, 1, 2, 3, 4};
    for (unsigned c = 0; c < 8; ++c)
        EXPECT_EQ(net.hopCount(c), expect[c]) << "cube " << c;
    // Host pair + 2*(3*2 horizontal + 4*1 vertical) directed edges.
    EXPECT_EQ(net.numLinks(), 22u);
}

TEST(Interconnect, MeshColsPins)
{
    EXPECT_EQ(meshCols(1), 1u);
    EXPECT_EQ(meshCols(2), 2u);
    EXPECT_EQ(meshCols(4), 2u);
    EXPECT_EQ(meshCols(8), 4u);
    EXPECT_EQ(meshCols(16), 4u);
}

TEST(Interconnect, MeshArrivalHandComputed)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 4), stats);
    // 2x2 grid, 16 B request to cube 3 (east then south, 2 hops):
    // 10 (host) + 6 (edge 0->1) + 6 (edge 1->3) = 22.
    EXPECT_EQ(net.sendRequest(16, 3), 22u);
}

// --------------------------------------------- counters / invariants

TEST(Interconnect, InjectedCountersCountPacketsOnce)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, netConfig(Topology::Mesh, 4), stats);
    net.sendRequest(16, 3); // crosses 3 links (host + 2 mesh edges)
    EXPECT_EQ(net.requestFlits(), 1u);
    EXPECT_EQ(stats.get("net.req.flits"), 1u);
    EXPECT_EQ(stats.get("net.req_hops"), 2u);
    std::uint64_t per_link = 0;
    for (unsigned i = 0; i < net.numLinks(); ++i)
        per_link += net.link(i).flits();
    EXPECT_EQ(per_link, 3u);
    // The per-link-vs-traversal conservation invariant holds.
    EXPECT_TRUE(stats.audit().empty());
}

} // namespace
} // namespace pei
