/**
 * @file
 * Directed tests for the daisy-chain interconnect (src/net/).
 *
 * The suite pins hand-computed hop counts and arrival ticks at the
 * default timing (40 GB/s per link = 10 B/tick, 2 ns = 8-tick
 * propagation, 1 ns = 4-tick hop) so any serialization or latency
 * change shows up as an exact-tick diff.
 */

#include <gtest/gtest.h>

#include "net/interconnect.hh"

namespace pei
{
namespace
{

// defaults: 40 GB/s, 2 ns prop, 1 ns hop, 16 B flits
const HmcLinkConfig link_cfg;

TEST(Interconnect, ChainMatchesDaisyChainFormula)
{
    // 16 B request from t=0: 2 ticks of serialization (16 B at
    // 10 B/tick), 8 ticks of propagation, 4 ticks per cube passed.
    for (unsigned c = 0; c < 8; ++c) {
        EventQueue eq;
        StatRegistry stats;
        Interconnect net(eq, link_cfg, stats);
        EXPECT_EQ(net.sendRequest(16, c), 2u + 8u + 4u * c);
        EXPECT_EQ(stats.get("net.req_hops"), c);
    }
}

TEST(Interconnect, ChainResponseSerializesWholePacket)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, link_cfg, stats);
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
    Interconnect net(eq, link_cfg, stats);
    // Two 80 B requests at t=0: the second waits for the first to
    // drain the request channel (8 ticks), then pays its own 8.
    EXPECT_EQ(net.sendRequest(80, 0), 8u + 8u);
    EXPECT_EQ(net.sendRequest(80, 0), 16u + 8u);
    // The channel was busy 16 ticks total.
    EXPECT_EQ(stats.get("link0.busy_ticks"), 16u);
    EXPECT_EQ(stats.get("link0.flits"), 10u);
}

TEST(Interconnect, InjectedCountersCountPacketsOnce)
{
    EventQueue eq;
    StatRegistry stats;
    Interconnect net(eq, link_cfg, stats);
    // A 4-cube chain: a 16 B request to cube 3 passes 3 cubes, and an
    // 80 B request to cube 0 passes none.
    net.sendRequest(16, 3);
    net.sendRequest(80, 0);
    EXPECT_EQ(net.requestFlits(), 6u);
    EXPECT_EQ(stats.get("net.req.flits"), 6u);
    EXPECT_EQ(stats.get("net.req_hops"), 3u);
    EXPECT_EQ(stats.get("link0.flits"), net.requestFlits());
    EXPECT_EQ(stats.get("link1.flits"), 0u);
    // Both same-tick sends feed the request EMA; a posted ack pays
    // latency only and feeds neither average.
    EXPECT_EQ(net.emaRequestFlits(), 6.0);
    EXPECT_EQ(net.ackLatency(3), 8u + 3u * 4u);
    EXPECT_EQ(net.emaResponseFlits(), 0.0);
    // The per-direction flit conservation invariants hold.
    EXPECT_TRUE(stats.audit().empty());
}

} // namespace
} // namespace pei
