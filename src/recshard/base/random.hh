/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of RecShard (workload synthesis, profiling
 * sub-sampling, solver tie-breaking) draw from Rng so that every
 * experiment is reproducible from a single 64-bit seed. The generator
 * is xoshiro256** seeded through SplitMix64, which is both fast and
 * statistically strong enough for workload modeling.
 */

#ifndef RECSHARD_BASE_RANDOM_HH
#define RECSHARD_BASE_RANDOM_HH

#include <cstdint>

namespace recshard {

/** SplitMix64 state advance + output mix; also used as a seeder. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * Deterministic 64-bit PRNG (xoshiro256**).
 *
 * Copyable; a copy continues the same stream independently. Use
 * fork() to derive statistically independent substreams, e.g. one
 * per sparse feature, so that changing one feature's sampling does
 * not perturb any other feature's stream.
 */
class Rng
{
  public:
    /** Construct from a seed; any 64-bit value is acceptable. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t nextU64()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform double in [0, 1) with 53 bits of precision. */
    double nextDouble()
    {
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in the inclusive range [lo, hi]. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Bernoulli trial with success probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** Standard normal deviate (Box-Muller, cached spare). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Derive an independent child stream.
     *
     * @param stream_id Distinguishes sibling streams forked from the
     *                  same parent state.
     */
    Rng fork(std::uint64_t stream_id) const;

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
    double spare;
    bool hasSpare;
};

} // namespace recshard

#endif // RECSHARD_BASE_RANDOM_HH
