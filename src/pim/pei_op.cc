#include "pei_op.hh"

#include <cstring>

#include "common/logging.hh"

namespace pei
{

namespace
{

// Table 1 of the paper, plus compute-cycle estimates for the PCU's
// single-issue computation logic (simple ALU ops take a cycle;
// vector reductions a few more).
const PeiOpInfo op_table[] = {
    // name        R      W      in  out target cycles
    {"inc64",      true,  true,  0,  0,  8,  1},
    {"min64",      true,  true,  8,  0,  8,  1},
    {"fadd",       true,  true,  8,  0,  8,  4},
    {"hash_probe", true,  false, 8,  9,  64, 8},
    {"hist_idx",   true,  false, 1,  16, 64, 16},
    {"euclid",     true,  false, 64, 4,  64, 16},
    {"dot",        true,  false, 32, 8,  32, 8},
};

static_assert(sizeof(op_table) / sizeof(op_table[0]) ==
              static_cast<std::size_t>(PeiOpcode::NumOpcodes));

} // namespace

const PeiOpInfo &
peiOpInfo(PeiOpcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    panic_if(idx >= static_cast<std::size_t>(PeiOpcode::NumOpcodes),
             "bad PEI opcode %zu", idx);
    return op_table[idx];
}

PimPacket
makePimPacket(PeiOpcode op, Addr paddr, const void *input,
              unsigned input_size)
{
    const PeiOpInfo &info = peiOpInfo(op);
    panic_if(input_size != info.input_bytes,
             "PEI %s: input operand is %u bytes, expected %u", info.name,
             input_size, info.input_bytes);

    PimPacket pkt;
    pkt.op = static_cast<std::uint16_t>(op);
    pkt.is_writer = info.writes;
    pkt.paddr = paddr;
    pkt.input_size = info.input_bytes;
    pkt.output_size = info.output_bytes;
    if (input_size > 0)
        std::memcpy(pkt.input.data(), input, input_size);

    panic_if(!fitsInBlock(paddr, info.target_bytes),
             "PEI %s target 0x%llx violates the single-cache-block "
             "restriction",
             info.name, static_cast<unsigned long long>(paddr));
    return pkt;
}

void
executePeiFunctional(VirtualMemory &vm, PimPacket &pkt)
{
    const auto op = static_cast<PeiOpcode>(pkt.op);
    switch (op) {
      case PeiOpcode::Inc64: {
        const auto v = vm.readPhys<std::uint64_t>(pkt.paddr);
        vm.writePhys<std::uint64_t>(pkt.paddr, v + 1);
        break;
      }
      case PeiOpcode::Min64: {
        std::uint64_t in;
        std::memcpy(&in, pkt.input.data(), 8);
        const auto cur = vm.readPhys<std::uint64_t>(pkt.paddr);
        if (in < cur)
            vm.writePhys<std::uint64_t>(pkt.paddr, in);
        break;
      }
      case PeiOpcode::FaddDouble: {
        double delta;
        std::memcpy(&delta, pkt.input.data(), 8);
        const auto cur = vm.readPhys<double>(pkt.paddr);
        vm.writePhys<double>(pkt.paddr, cur + delta);
        break;
      }
      case PeiOpcode::HashProbe: {
        HashProbeIn in;
        std::memcpy(&in, pkt.input.data(), sizeof(in));
        const auto bucket = vm.readPhys<HashBucket>(blockAlign(pkt.paddr));
        HashProbeOut out{bucket.next, 0};
        const std::uint64_t n =
            bucket.count < HashBucket::max_keys ? bucket.count
                                                : HashBucket::max_keys;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (bucket.keys[i] == in.key) {
                out.match = 1;
                break;
            }
        }
        std::memcpy(pkt.output.data(), &out.next, 8);
        pkt.output[8] = out.match;
        break;
      }
      case PeiOpcode::HistBinIdx: {
        const std::uint8_t shift = pkt.input[0];
        const Addr base = blockAlign(pkt.paddr);
        for (unsigned i = 0; i < 16; ++i) {
            const auto word =
                vm.readPhys<std::uint32_t>(base + i * 4);
            pkt.output[i] =
                static_cast<std::uint8_t>((word >> shift) & 0xFF);
        }
        break;
      }
      case PeiOpcode::EuclidDist: {
        float in[16];
        std::memcpy(in, pkt.input.data(), sizeof(in));
        const Addr base = blockAlign(pkt.paddr);
        float sum = 0.0f;
        for (unsigned i = 0; i < 16; ++i) {
            const auto a = vm.readPhys<float>(base + i * 4);
            const float d = a - in[i];
            sum += d * d;
        }
        std::memcpy(pkt.output.data(), &sum, 4);
        break;
      }
      case PeiOpcode::DotProduct: {
        double in[4];
        std::memcpy(in, pkt.input.data(), sizeof(in));
        double sum = 0.0;
        for (unsigned i = 0; i < 4; ++i) {
            const auto a = vm.readPhys<double>(pkt.paddr + i * 8);
            sum += a * in[i];
        }
        std::memcpy(pkt.output.data(), &sum, 8);
        break;
      }
      default:
        panic("unknown PEI opcode %u", pkt.op);
    }
}

} // namespace pei
