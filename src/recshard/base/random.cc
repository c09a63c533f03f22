#include "recshard/base/random.hh"

#include <cmath>

#include "recshard/base/logging.hh"

namespace recshard {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : spare(0.0), hasSpare(false)
{
    // SplitMix64 expansion guarantees a non-degenerate xoshiro state
    // for every seed, including zero.
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    panic_if(lo > hi, "uniformInt range [", lo, ", ", hi, "] is empty");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t raw;
    do {
        raw = nextU64();
    } while (raw >= limit);
    return lo + static_cast<std::int64_t>(raw % span);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::gaussian()
{
    if (hasSpare) {
        hasSpare = false;
        return spare;
    }
    double u, v, r2;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        r2 = u * u + v * v;
    } while (r2 >= 1.0 || r2 == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(r2) / r2);
    spare = v * scale;
    hasSpare = true;
    return u * scale;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    // Mix the parent state with the stream id through SplitMix64 so
    // sibling streams are decorrelated even for adjacent ids.
    std::uint64_t mix = s[0] ^ (stream_id * 0xd1342543de82ef95ULL);
    return Rng(splitMix64(mix));
}

} // namespace recshard
