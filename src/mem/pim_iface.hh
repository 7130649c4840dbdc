/**
 * @file
 * The packetized PIM-operation interface between the host-side PMU
 * and the memory-side PCUs (paper §4.2: "memory-side PCUs are
 * interfaced with the HMC controllers using special memory
 * commands").
 *
 * Lives in the mem module so that the HMC model can route PIM
 * packets without depending on the pim module (the pim module
 * registers concrete handlers at system construction).
 */

#ifndef PEISIM_MEM_PIM_IFACE_HH
#define PEISIM_MEM_PIM_IFACE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "sim/continuation.hh"

namespace pei
{

/** Maximum input/output operand size: one last-level cache block
 *  (paper §3.1's single-cache-block restriction). */
constexpr unsigned max_operand_bytes = block_size;

/**
 * A PIM operation in flight between the PMU and a memory-side PCU.
 * Carries the opcode, the exact (physical) target address inside one
 * cache block, and up to one block of input/output operand data.
 */
struct PimPacket
{
    std::uint16_t op = 0;      ///< opcode (index into the PEI op table)
    bool is_writer = false;    ///< does the op modify its target block?
    Addr paddr = invalid_addr; ///< physical target address
    Tick issue_tick = 0;       ///< PMU issue time (latency accounting)
    unsigned input_size = 0;
    unsigned output_size = 0;

    std::array<std::uint8_t, max_operand_bytes> input{};
    std::array<std::uint8_t, max_operand_bytes> output{};

    /**
     * Request-packet size on the off-chip link: an 8-byte compound-
     * command header plus the input operands (§2.2 counts 8 bytes of
     * off-chip traffic for a memory-side 8-byte atomic add).
     */
    unsigned requestBytes() const { return 8 + input_size; }

    /**
     * Response-packet size.  Operations with output operands return
     * a full packet; pure writer operations (no output) complete
     * with posted, aggregated acks that consume no link bandwidth.
     */
    unsigned responseBytes() const
    {
        return output_size > 0 ? 16 + output_size : 0;
    }
};

/**
 * Handler for PIM packets arriving at a vault; implemented by the
 * memory-side PCU.  @p respond must eventually be invoked with the
 * completed packet (output operands filled in).
 */
class PimHandler
{
  public:
    virtual ~PimHandler() = default;

    /**
     * Completion callback for a dispatched PIM packet.  The 24-byte
     * inline budget fits the HMC controller's `{this, txn-handle}`
     * response stage; larger responder state must live in a
     * transaction record, not the closure.
     */
    using Respond = InlineFunction<void(PimPacket), 24>;

    virtual void handle(PimPacket pkt, Respond respond) = 0;
};

} // namespace pei

#endif // PEISIM_MEM_PIM_IFACE_HH
