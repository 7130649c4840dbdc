#include "program.hh"

#include <cstring>

#include "common/rng.hh"

namespace pei
{
namespace fuzz
{

namespace
{

/** Reader opcodes (never modify memory; target the RO region). */
const PeiOpcode reader_ops[] = {PeiOpcode::HashProbe, PeiOpcode::HistBinIdx,
                                PeiOpcode::EuclidDist,
                                PeiOpcode::DotProduct};

/** Commutative writer op classes a shared block can be tagged with. */
const PeiOpcode writer_classes[] = {PeiOpcode::Inc64, PeiOpcode::Min64,
                                    PeiOpcode::FaddDouble};

void
initBlock(std::uint8_t *block, PeiOpcode cls, Rng &rng)
{
    std::memset(block, 0, block_size);
    switch (cls) {
      case PeiOpcode::Inc64: {
        const std::uint64_t v = rng.below(1000);
        std::memcpy(block, &v, 8);
        break;
      }
      case PeiOpcode::Min64: {
        const std::uint64_t v = 500 + rng.below(1u << 20);
        std::memcpy(block, &v, 8);
        break;
      }
      case PeiOpcode::FaddDouble: {
        const double v =
            static_cast<double>(static_cast<std::int64_t>(rng.below(2001)) -
                                1000);
        std::memcpy(block, &v, 8);
        break;
      }
      default:
        break;
    }
}

} // namespace

unsigned
fillInput(PeiOpcode op, std::uint64_t value, std::uint8_t *out)
{
    switch (op) {
      case PeiOpcode::Inc64:
        return 0;
      case PeiOpcode::Min64: {
        // Varied magnitudes so some mins take effect and some don't.
        const std::uint64_t v = mix64(value) >> (value % 33);
        std::memcpy(out, &v, 8);
        return 8;
      }
      case PeiOpcode::FaddDouble: {
        // Integral-valued deltas: double addition is exact, hence
        // commutative, hence order-independent across threads.
        const double d = static_cast<double>(
            static_cast<std::int64_t>(mix64(value) % 2001) - 1000);
        std::memcpy(out, &d, 8);
        return 8;
      }
      case PeiOpcode::HashProbe: {
        // Small key space: probes hit initialized bucket keys often.
        const std::uint64_t key = mix64(value) % 16;
        std::memcpy(out, &key, 8);
        return 8;
      }
      case PeiOpcode::HistBinIdx: {
        out[0] = static_cast<std::uint8_t>(mix64(value) % 25);
        return 1;
      }
      case PeiOpcode::EuclidDist: {
        for (unsigned i = 0; i < 16; ++i) {
            const float f = static_cast<float>(
                static_cast<std::int64_t>(mix64(value + i) % 201) - 100);
            std::memcpy(out + 4 * i, &f, 4);
        }
        return 64;
      }
      case PeiOpcode::DotProduct: {
        for (unsigned i = 0; i < 4; ++i) {
            const double d = static_cast<double>(
                static_cast<std::int64_t>(mix64(value + i) % 201) - 100);
            std::memcpy(out + 8 * i, &d, 8);
        }
        return 32;
      }
      default:
        return 0;
    }
}

unsigned
peiOffset(const FuzzOp &o)
{
    // DotProduct touches 32 bytes, the only op whose target fits at
    // two distinct in-block positions; everything else targets the
    // block base (writers share the u64/double slot at offset 0).
    if (o.op == PeiOpcode::DotProduct && o.kind == OpKind::Pei)
        return (o.value & 1) ? 32 : 0;
    return 0;
}

unsigned
storeOffset(const FuzzOp &o)
{
    return static_cast<unsigned>((o.value >> 8) % 8) * 8;
}

FuzzProgram
generateProgram(std::uint64_t seed, std::size_t prefix,
                std::uint32_t thread_mask)
{
    FuzzProgram p;
    p.seed = seed;
    p.prefix = prefix;
    p.thread_mask = thread_mask;

    // Layout: derived from the seed alone, so prefix/mask replays
    // keep footprint addresses and the initial image byte-stable.
    Rng layout_rng(mix64(seed ^ 0x10ca11717e57ULL));
    p.threads_total = 1 + static_cast<unsigned>(layout_rng.below(16));
    p.contended = layout_rng.chance(0.5);
    p.ro_blocks = 1 + static_cast<std::uint32_t>(layout_rng.below(8));
    p.shared_blocks = 1 + static_cast<std::uint32_t>(layout_rng.below(8));
    p.priv_blocks_per_thread = 2;
    p.total_blocks = p.ro_blocks + p.shared_blocks +
                     p.threads_total * p.priv_blocks_per_thread;

    p.shared_class.resize(p.shared_blocks);
    for (auto &cls : p.shared_class)
        cls = writer_classes[layout_rng.below(3)];

    // Initial image: read-only blocks hold 8 small u64s apiece (valid
    // hash buckets with occasionally-overflowing counts, denormal
    // floats/doubles for the vector readers — never NaN); shared
    // writer blocks hold their class's accumulator at offset 0;
    // private blocks start zeroed.
    p.init_image.assign(
        static_cast<std::size_t>(p.total_blocks) * block_size, 0);
    for (std::uint32_t b = 0; b < p.ro_blocks; ++b) {
        for (unsigned i = 0; i < 8; ++i) {
            const std::uint64_t v = layout_rng.below(16);
            std::memcpy(&p.init_image[b * block_size + 8 * i], &v, 8);
        }
    }
    for (std::uint32_t s = 0; s < p.shared_blocks; ++s) {
        initBlock(&p.init_image[(p.ro_blocks + s) * block_size],
                  p.shared_class[s], layout_rng);
    }

    // Per-thread streams: each thread draws from its own generator,
    // so dropping a thread does not perturb the others' streams.
    for (unsigned t = 0; t < p.threads_total && t < 32; ++t) {
        if (!(thread_mask & (1u << t)))
            continue;
        p.thread_ids.push_back(t);
        Rng rng(mix64(seed ^ (0x7157ead5ULL + 0x9E3779B97F4A7C15ULL * t)));

        // Shared writer blocks this thread may target: all of them
        // when contended, a round-robin-owned subset when disjoint.
        std::vector<std::uint32_t> writable;
        for (std::uint32_t s = 0; s < p.shared_blocks; ++s) {
            if (p.contended || s % p.threads_total == t)
                writable.push_back(s);
        }

        const std::size_t len = 4 + rng.below(29);
        std::vector<FuzzOp> stream;
        stream.reserve(len);
        for (std::size_t i = 0; i < len; ++i) {
            FuzzOp o;
            o.value = rng.next();
            o.async = rng.chance(0.5);
            const std::uint64_t r = rng.below(100);
            if (r < 45) {
                o.kind = OpKind::Pei;
                const bool writer = !writable.empty() && rng.chance(0.5);
                if (writer) {
                    const std::uint32_t s = writable[static_cast<
                        std::size_t>(rng.below(writable.size()))];
                    o.op = p.shared_class[s];
                    o.block = p.sharedBlockIndex(s);
                } else {
                    o.op = reader_ops[rng.below(4)];
                    o.block =
                        static_cast<std::uint32_t>(rng.below(p.ro_blocks));
                }
            } else if (r < 65) {
                o.kind = OpKind::Load;
                // Read-only region or an own private block — never a
                // shared writer block, whose cached state is governed
                // by the offloaded-writer probe.
                if (rng.chance(0.7)) {
                    o.block =
                        static_cast<std::uint32_t>(rng.below(p.ro_blocks));
                } else {
                    o.block = p.privBlockIndex(
                        t, static_cast<std::uint32_t>(
                               rng.below(p.priv_blocks_per_thread)));
                }
            } else if (r < 80) {
                o.kind = OpKind::Store;
                o.block = p.privBlockIndex(
                    t, static_cast<std::uint32_t>(
                           rng.below(p.priv_blocks_per_thread)));
            } else if (r < 88) {
                o.kind = OpKind::Pfence;
            } else {
                o.kind = OpKind::Compute;
                o.value = 1 + o.value % 300;
            }
            stream.push_back(o);
        }
        if (prefix < stream.size())
            stream.resize(prefix);
        p.streams.push_back(std::move(stream));
    }
    return p;
}

} // namespace fuzz
} // namespace pei
