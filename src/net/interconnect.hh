/**
 * @file
 * The off-chip interconnect between the host and N memory cubes: the
 * paper's Table 2 daisy chain.
 *
 * One full-duplex link pair spans every cube: link0 carries requests,
 * link1 responses.  A link is a unidirectional serialized channel
 * with `linkN.flits`, `linkN.bytes` and `linkN.busy_ticks` counters
 * (utilization = busy_ticks / sim ticks).  A packet to or from cube c
 * serializes on its link, then pays the propagation latency plus one
 * hop latency per cube it passes down the chain.
 *
 * Injected-traffic counters (`net.req.*` / `net.res.*`) count each
 * packet once, and `net.req_hops` / `net.res_hops` sum the chain hops
 * per packet (coherence traffic rides read/write/PIM packets and is
 * therefore covered).  The same sends feed the moving averages of
 * request and response flits that balanced dispatch reads.
 */

#ifndef PEISIM_NET_INTERCONNECT_HH
#define PEISIM_NET_INTERCONNECT_HH

#include <cmath>
#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace pei
{

/** Off-chip interconnect configuration. */
struct HmcLinkConfig
{
    double gbps = 40.0;      ///< per-direction bandwidth
    double latency_ns = 2.0; ///< propagation latency per direction
    double hop_ns = 1.0;     ///< extra latency per daisy-chain hop
    unsigned flit_bytes = 16;

    bool operator==(const HmcLinkConfig &) const = default;
};

/**
 * Exponential-moving-average flit counter used by balanced dispatch
 * (paper §7.4): accumulates flits and is halved every 10 µs.  Decay
 * is applied lazily to keep the event queue clean.
 */
class EmaCounter
{
  public:
    explicit EmaCounter(Ticks half_period = 40000) // 10 us at 4 GHz
        : half_period(half_period)
    {}

    void
    add(std::uint64_t n, Tick now)
    {
        decayTo(now);
        value_ += static_cast<double>(n);
    }

    double
    value(Tick now)
    {
        decayTo(now);
        return value_;
    }

  private:
    void
    decayTo(Tick now)
    {
        if (now <= last)
            return;
        const std::uint64_t periods = (now - last) / half_period;
        last += periods * half_period;
        if (periods == 0)
            return;
        // Closed-form halving: value * 2^-periods.  Doubles underflow
        // to zero well before 2^-2048, so any gap past that many
        // half-periods clamps straight to zero in O(1).
        if (periods >= 2048)
            value_ = 0.0;
        else
            value_ = std::ldexp(value_, -static_cast<int>(periods));
        if (value_ <= 1e-12)
            value_ = 0.0;
    }

    Ticks half_period;
    Tick last = 0;
    double value_ = 0.0;
};

/**
 * One unidirectional serialized channel.  transmit() occupies the
 * wire for wire_bytes/bandwidth starting no earlier than @p earliest
 * (and no earlier than the previous packet drains) and returns the
 * tick the last byte leaves.
 */
class NetLink
{
  public:
    NetLink(const std::string &name, double bytes_per_tick,
            StatRegistry &stats);

    Tick transmit(unsigned flits, unsigned wire_bytes, Tick earliest);

    std::uint64_t flits() const { return stat_flits.value(); }

  private:
    double bytes_per_tick;
    Tick free_at = 0;

    Counter stat_flits;
    Counter stat_bytes;
    Counter stat_busy; ///< ticks the wire was occupied (utilization)
};

/** The host-to-cubes daisy chain: one serialized link per direction. */
class Interconnect
{
  public:
    Interconnect(EventQueue &eq, const HmcLinkConfig &cfg,
                 StatRegistry &stats);

    /** Send @p bytes host -> cube @p cube; returns arrival tick. */
    Tick sendRequest(unsigned bytes, unsigned cube);

    /** Send @p bytes cube @p cube -> host; returns arrival tick. */
    Tick sendResponse(unsigned bytes, unsigned cube);

    /**
     * Send a coalesced PEI train of @p peis operations in one
     * @p bytes-sized request packet (one compound header amortized
     * across the train).  Counted once in `net.req.*` like any other
     * packet, plus the `net.trains.*` family; returns arrival tick.
     */
    Tick sendRequestTrain(unsigned bytes, unsigned peis, unsigned cube);

    /** Response counterpart of sendRequestTrain. */
    Tick sendResponseTrain(unsigned bytes, unsigned cube);

    /**
     * Latency of a posted (zero-payload) acknowledgement from
     * @p cube: propagation + per-hop latency with no link occupancy
     * (acks aggregate into idle flits).
     */
    Ticks ackLatency(unsigned cube) const;

    /** EMA of request flits (balanced dispatch input). */
    double emaRequestFlits() { return ema_req.value(eq.now()); }

    /** EMA of response flits (balanced dispatch input). */
    double emaResponseFlits() { return ema_res.value(eq.now()); }

    /** Injected traffic totals (once per packet). */
    std::uint64_t requestFlits() const { return stat_req_flits.value(); }
    std::uint64_t requestBytes() const { return stat_req_bytes.value(); }
    std::uint64_t responseFlits() const { return stat_res_flits.value(); }
    std::uint64_t responseBytes() const { return stat_res_bytes.value(); }

  private:
    unsigned flitsOf(unsigned bytes) const;

    /** Serialize @p flits on @p link, then travel to/from @p cube. */
    Tick send(NetLink &link, unsigned flits, unsigned cube);

    EventQueue &eq;
    unsigned flit_bytes;
    Ticks prop_latency;
    Ticks hop_latency;

    NetLink link0; ///< requests, host -> cubes
    NetLink link1; ///< responses, cubes -> host
    EmaCounter ema_req;
    EmaCounter ema_res;

    Counter stat_req_flits;
    Counter stat_req_bytes;
    Counter stat_res_flits;
    Counter stat_res_bytes;
    Counter stat_req_hops; ///< chain hops, summed per packet
    Counter stat_res_hops;
    Counter stat_train_req;  ///< coalesced PEI request trains sent
    Counter stat_train_res;  ///< train response packets sent
    Counter stat_train_peis; ///< PEIs carried by request trains
};

} // namespace pei

#endif // PEISIM_NET_INTERCONNECT_HH
