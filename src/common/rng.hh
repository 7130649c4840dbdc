/**
 * @file
 * Deterministic pseudo-random number generation for workload input
 * synthesis.  xoshiro256** — fast, high quality, fully reproducible
 * across platforms (unlike std::mt19937 distributions, whose results
 * are implementation-defined for some distribution types).
 */

#ifndef PEISIM_COMMON_RNG_HH
#define PEISIM_COMMON_RNG_HH

#include <cstdint>

#include "logging.hh"

namespace pei
{

/** xoshiro256** 1.0 generator (Blackman & Vigna, public domain). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        // SplitMix64 seeding to decorrelate nearby seeds.
        std::uint64_t z = seed;
        for (auto &word : state) {
            z += 0x9E3779B97F4A7C15ULL;
            std::uint64_t x = z;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
            word = x ^ (x >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) via Lemire's method. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Rejection-free multiply-shift; bias is negligible for
        // simulation input generation (bound << 2^64).
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace pei

#endif // PEISIM_COMMON_RNG_HH
