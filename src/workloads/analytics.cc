#include "analytics.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pim/pei_op.hh"
#include "workloads/hash_table.hh"
#include "workloads/input_cache.hh"

namespace pei
{

/**
 * Memoized host-side hash-join input: the bucket image stores chain
 * links as indices (see HashTableImage) so the cached data is
 * independent of where the table lands in each run's simulated
 * address space; setup() resolves them to addresses.
 */
struct HashJoinInput
{
    HashTableImage table;
    std::vector<std::uint64_t> probe_keys;
    std::uint64_t expected_matches = 0;
};

namespace
{

/** Random u32 input arrays shared by HG and RP. */
const std::vector<std::uint32_t> &
cachedRandomU32(std::uint64_t count, std::uint64_t seed)
{
    const std::string key = "u32/n=" + std::to_string(count) +
                            "/seed=" + std::to_string(seed);
    return cachedInput<std::vector<std::uint32_t>>(key, [count, seed] {
        Rng rng(seed);
        std::vector<std::uint32_t> vals(count);
        for (auto &v : vals)
            v = static_cast<std::uint32_t>(rng.next());
        return vals;
    });
}

} // namespace

// ----------------------------------------------------------------- HJ

namespace
{

HashJoinInput
genHashJoinInput(std::uint64_t build_rows, std::uint64_t probe_rows,
                 std::uint64_t seed)
{
    HashJoinInput in;
    Rng rng(seed ^ 0x41);

    std::vector<std::uint64_t> build_keys(build_rows);
    for (auto &k : build_keys)
        k = rng.next() | 1; // nonzero keys

    in.table = buildHashTable(build_keys);

    // Probe relation: ~50% hits.
    std::unordered_set<std::uint64_t> build_set(build_keys.begin(),
                                                build_keys.end());
    in.probe_keys.resize(probe_rows);
    for (std::uint64_t i = 0; i < probe_rows; ++i) {
        std::uint64_t key;
        if (rng.chance(0.5)) {
            key = build_keys[rng.below(build_rows)];
        } else {
            do {
                key = rng.next() | 1;
            } while (build_set.count(key));
        }
        in.probe_keys[i] = key;
        in.expected_matches += build_set.count(key);
    }
    return in;
}

} // namespace

void
HashJoinWorkload::setup(Runtime &rt)
{
    const std::string key = "hj/build=" + std::to_string(build_rows) +
                            "/probe=" + std::to_string(probe_rows) +
                            "/seed=" + std::to_string(seed);
    input = &cachedInput<HashJoinInput>(key, [this] {
        return genHashJoinInput(build_rows, probe_rows, seed);
    });
    num_buckets = input->table.num_buckets;

    table_addr = materializeHashTable(rt, input->table);
    VirtualMemory &vm = rt.system().memory();

    probe_addr = rt.allocArray<std::uint64_t>(probe_rows);
    expected_matches = input->expected_matches;
    vm.writeBytes(probe_addr, input->probe_keys.data(), 8 * probe_rows);
}

Task
HashJoinWorkload::probeStream(Ctx &ctx, std::uint64_t begin,
                              std::uint64_t end, std::uint64_t step)
{
    (void)step;
    Ctx::StreamCursor key_cur;
    for (std::uint64_t i = begin; i < end; ++i) {
        co_await ctx.streamLoad(probe_addr + 8 * i, key_cur);
        const auto key = ctx.fread<std::uint64_t>(probe_addr + 8 * i);
        HashProbeIn in{key};
        Addr baddr = hashTableBucketAddr(table_addr, num_buckets, key);
        while (true) {
            PimPacket pkt = co_await ctx.pei(PeiOpcode::HashProbe, baddr,
                                             &in, sizeof(in));
            ++peis_issued;
            if (pkt.output[8]) {
                ++match_count;
                break;
            }
            std::uint64_t next;
            std::memcpy(&next, pkt.output.data(), 8);
            if (next == 0)
                break;
            baddr = next; // host-side pointer chase to the overflow
        }
    }
    co_await ctx.drain();
}

void
HashJoinWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    // Software unrolling (§5.2): each hardware thread runs `unroll`
    // interleaved probe streams over contiguous slices, giving the
    // OoO core independent lookups to overlap.
    const std::uint64_t streams = std::uint64_t{threads} * unroll;
    for (std::uint64_t s = 0; s < streams; ++s) {
        const std::uint64_t begin = probe_rows * s / streams;
        const std::uint64_t end = probe_rows * (s + 1) / streams;
        const unsigned core = base + static_cast<unsigned>(s % threads);
        rt.spawn(core, [this, begin, end](Ctx &ctx) {
            return probeStream(ctx, begin, end, 1);
        });
    }
}

bool
HashJoinWorkload::validate(System &sys, std::string &msg)
{
    (void)sys;
    if (match_count != expected_matches) {
        msg = "HJ: matched " + std::to_string(match_count) +
              " probes, expected " + std::to_string(expected_matches);
        return false;
    }
    return true;
}

// ----------------------------------------------------------------- HG

void
HistogramWorkload::setup(Runtime &rt)
{
    fatal_if(num_ints % 16 != 0, "HG input must be a whole block count");
    input_addr = rt.allocArray<std::uint32_t>(num_ints);
    VirtualMemory &vm = rt.system().memory();
    const auto &vals = cachedRandomU32(num_ints, seed ^ 0x47);
    vm.writeBytes(input_addr, vals.data(), 4 * num_ints);
}

Task
HistogramWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const std::uint64_t nblocks = num_ints / 16;
    const std::uint64_t bb = nblocks * tid / n;
    const std::uint64_t be = nblocks * (tid + 1) / n;
    auto &bins = local_bins[tid];
    const std::uint8_t sh = shift;
    for (std::uint64_t b = bb; b < be; ++b) {
        const Addr addr = input_addr + b * block_size;
        co_await ctx.peiAsyncCb(
            PeiOpcode::HistBinIdx, addr, &sh, 1,
            [&bins](const PimPacket &pkt) {
                for (unsigned k = 0; k < 16; ++k)
                    ++bins[pkt.output[k]];
            });
        ++peis_issued;
    }
    co_await ctx.drain();
}

void
HistogramWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    local_bins.assign(threads, std::vector<std::uint64_t>(256, 0));
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
HistogramWorkload::validate(System &sys, std::string &msg)
{
    merged.assign(256, 0);
    for (const auto &bins : local_bins)
        for (unsigned b = 0; b < 256; ++b)
            merged[b] += bins[b];

    std::vector<std::uint64_t> ref(256, 0);
    for (std::uint64_t i = 0; i < num_ints; ++i) {
        const auto v = sys.memory().read<std::uint32_t>(input_addr + 4 * i);
        ++ref[(v >> shift) & 0xFF];
    }
    for (unsigned b = 0; b < 256; ++b) {
        if (merged[b] != ref[b]) {
            msg = "HG: bin " + std::to_string(b) + " is " +
                  std::to_string(merged[b]) + ", expected " +
                  std::to_string(ref[b]);
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------------------- RP

void
RadixPartitionWorkload::setup(Runtime &rt)
{
    fatal_if(rows % 16 != 0, "RP input must be a whole block count");
    input_addr = rt.allocArray<std::uint32_t>(rows);
    output_addr = rt.allocArray<std::uint32_t>(rows);
    VirtualMemory &vm = rt.system().memory();
    const auto &vals = cachedRandomU32(rows, seed ^ 0x52);
    vm.writeBytes(input_addr, vals.data(), 4 * rows);
}

Task
RadixPartitionWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const std::uint64_t nblocks = rows / 16;
    const std::uint64_t bb = nblocks * tid / n;
    const std::uint64_t be = nblocks * (tid + 1) / n;
    const std::uint8_t sh = shift;

    for (unsigned rep = 0; rep < repetitions; ++rep) {
        // Phase 1: histogram of the keys (same PEI as HG).
        auto &bins = local_hist[tid];
        bins.assign(partitions, 0);
        for (std::uint64_t b = bb; b < be; ++b) {
            const Addr addr = input_addr + b * block_size;
            co_await ctx.peiAsyncCb(
                PeiOpcode::HistBinIdx, addr, &sh, 1,
                [&bins](const PimPacket &pkt) {
                    for (unsigned k = 0; k < 16; ++k)
                        ++bins[pkt.output[k]];
                });
            ++peis_issued;
        }
        co_await ctx.drain();
        co_await barrier->arrive();

        if (tid == 0) {
            // Exclusive prefix sum over the merged histogram.
            part_base.assign(partitions, 0);
            std::uint64_t acc = 0;
            for (unsigned p = 0; p < partitions; ++p) {
                part_base[p] = acc;
                for (const auto &h : local_hist)
                    acc += h[p];
            }
            part_cursor = part_base;
        }
        co_await barrier->arrive();

        // Phase 2: scatter rows into their partitions.
        Ctx::StreamCursor in_cur;
        for (std::uint64_t i = bb * 16; i < be * 16; ++i) {
            co_await ctx.streamLoad(input_addr + 4 * i, in_cur);
            const auto key =
                ctx.fread<std::uint32_t>(input_addr + 4 * i);
            const unsigned p = (key >> shift) & 0xFF;
            const std::uint64_t slot = part_cursor[p]++;
            ctx.fwrite<std::uint32_t>(output_addr + 4 * slot, key);
            co_await ctx.storeAsync(output_addr + 4 * slot);
        }
        co_await ctx.drain();
        co_await barrier->arrive();
    }
}

void
RadixPartitionWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    barrier = std::make_unique<Barrier>(rt.system().eventQueue(), threads);
    local_hist.assign(threads, std::vector<std::uint64_t>(partitions, 0));
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
RadixPartitionWorkload::validate(System &sys, std::string &msg)
{
    // Reference histogram → partition boundaries; then check that
    // every output element sits inside its own partition's range.
    std::vector<std::uint64_t> ref(partitions, 0);
    for (std::uint64_t i = 0; i < rows; ++i) {
        const auto v = sys.memory().read<std::uint32_t>(input_addr + 4 * i);
        ++ref[(v >> shift) & 0xFF];
    }
    std::vector<std::uint64_t> base(partitions, 0);
    std::uint64_t acc = 0;
    for (unsigned p = 0; p < partitions; ++p) {
        base[p] = acc;
        acc += ref[p];
    }
    for (unsigned p = 0; p < partitions; ++p) {
        const std::uint64_t end = (p + 1 < partitions) ? base[p + 1] : rows;
        for (std::uint64_t i = base[p]; i < end; ++i) {
            const auto v =
                sys.memory().read<std::uint32_t>(output_addr + 4 * i);
            if (((v >> shift) & 0xFF) != p) {
                msg = "RP: element at slot " + std::to_string(i) +
                      " belongs to partition " +
                      std::to_string((v >> shift) & 0xFF) + ", not " +
                      std::to_string(p);
                return false;
            }
        }
    }
    return true;
}

} // namespace pei
