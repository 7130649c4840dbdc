#include "golden.hh"

#include <cstring>

namespace pei
{
namespace fuzz
{

namespace
{

template <typename T>
T
loadAt(const std::vector<std::uint8_t> &image, std::size_t off)
{
    T v;
    std::memcpy(&v, &image[off], sizeof(T));
    return v;
}

template <typename T>
void
storeAt(std::vector<std::uint8_t> &image, std::size_t off, T v)
{
    std::memcpy(&image[off], &v, sizeof(T));
}

/** Execute one PEI on the image; fills @p out for reader ops. */
void
executeGoldenPei(std::vector<std::uint8_t> &image, std::size_t block_base,
                 const FuzzOp &o, PeiOutput &out)
{
    std::uint8_t input[64] = {};
    fillInput(o.op, o.value, input);
    const std::size_t target = block_base + peiOffset(o);

    switch (o.op) {
      case PeiOpcode::Inc64:
        storeAt<std::uint64_t>(image, target,
                               loadAt<std::uint64_t>(image, target) + 1);
        break;
      case PeiOpcode::Min64: {
        std::uint64_t in;
        std::memcpy(&in, input, 8);
        if (in < loadAt<std::uint64_t>(image, target))
            storeAt<std::uint64_t>(image, target, in);
        break;
      }
      case PeiOpcode::FaddDouble: {
        double delta;
        std::memcpy(&delta, input, 8);
        storeAt<double>(image, target,
                        loadAt<double>(image, target) + delta);
        break;
      }
      case PeiOpcode::HashProbe: {
        // Bucket layout: 6 keys, a (possibly overflowing) count, and
        // the overflow-chain pointer, one cache block total.
        std::uint64_t key;
        std::memcpy(&key, input, 8);
        std::uint64_t count = loadAt<std::uint64_t>(image, block_base + 48);
        if (count > 6)
            count = 6;
        std::uint8_t match = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            if (loadAt<std::uint64_t>(image, block_base + 8 * i) == key) {
                match = 1;
                break;
            }
        }
        const std::uint64_t next =
            loadAt<std::uint64_t>(image, block_base + 56);
        std::memcpy(out.bytes.data(), &next, 8);
        out.bytes[8] = match;
        out.size = 9;
        break;
      }
      case PeiOpcode::HistBinIdx: {
        const std::uint8_t shift = input[0];
        for (unsigned i = 0; i < 16; ++i) {
            const auto word =
                loadAt<std::uint32_t>(image, block_base + 4 * i);
            out.bytes[i] =
                static_cast<std::uint8_t>((word >> shift) & 0xFF);
        }
        out.size = 16;
        break;
      }
      case PeiOpcode::EuclidDist: {
        float in[16];
        std::memcpy(in, input, sizeof(in));
        float sum = 0.0f;
        for (unsigned i = 0; i < 16; ++i) {
            const float d =
                loadAt<float>(image, block_base + 4 * i) - in[i];
            sum += d * d;
        }
        std::memcpy(out.bytes.data(), &sum, 4);
        out.size = 4;
        break;
      }
      case PeiOpcode::DotProduct: {
        double in[4];
        std::memcpy(in, input, sizeof(in));
        double sum = 0.0;
        for (unsigned i = 0; i < 4; ++i)
            sum += loadAt<double>(image, target + 8 * i) * in[i];
        std::memcpy(out.bytes.data(), &sum, 8);
        out.size = 8;
        break;
      }
      default:
        break;
    }
}

} // namespace

GoldenResult
runGolden(const FuzzProgram &p)
{
    GoldenResult g;
    g.image = p.init_image;
    g.outputs.resize(p.streams.size());

    for (std::size_t ti = 0; ti < p.streams.size(); ++ti) {
        for (const FuzzOp &o : p.streams[ti]) {
            const std::size_t block_base =
                static_cast<std::size_t>(o.block) * block_size;
            switch (o.kind) {
              case OpKind::Pei: {
                g.outputs[ti].emplace_back();
                executeGoldenPei(g.image, block_base, o,
                                 g.outputs[ti].back());
                break;
              }
              case OpKind::Store:
                storeAt<std::uint64_t>(g.image,
                                       block_base + storeOffset(o),
                                       o.value);
                break;
              case OpKind::Load:
              case OpKind::Pfence:
              case OpKind::Compute:
                break;
            }
        }
    }
    return g;
}

} // namespace fuzz
} // namespace pei
