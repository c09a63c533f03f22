/**
 * @file
 * Tests for feature hashing and the birthday-paradox analytics that
 * motivate RecShard's reclamation of unused EMB rows (paper
 * Sections 3.4, Figs. 7-8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/hashing/birthday.hh"
#include "recshard/hashing/hashers.hh"

namespace {

using namespace recshard;

TEST(Hashers, MixersAreDeterministic)
{
    EXPECT_EQ(mixSplitMix64(12345), mixSplitMix64(12345));
    EXPECT_EQ(mixMurmur3(12345), mixMurmur3(12345));
    EXPECT_NE(mixSplitMix64(1), mixSplitMix64(2));
    EXPECT_NE(mixMurmur3(1), mixMurmur3(2));
}

TEST(Hashers, MixersAvalanche)
{
    // Flipping one input bit should flip roughly half the output
    // bits on average.
    for (auto mix : {mixSplitMix64, mixMurmur3}) {
        double total_flips = 0;
        const int trials = 256;
        for (int t = 0; t < trials; ++t) {
            const std::uint64_t x = 0x123456789abcdefULL * (t + 1);
            const std::uint64_t y = x ^ (1ULL << (t % 64));
            total_flips += __builtin_popcountll(mix(x) ^ mix(y));
        }
        EXPECT_NEAR(total_flips / trials, 32.0, 3.0);
    }
}

TEST(FeatureHasher, StaysInRange)
{
    FeatureHasher hasher(97, 5);
    for (std::uint64_t v = 0; v < 10000; ++v)
        EXPECT_LT(hasher(v), 97u);
}

TEST(FeatureHasher, SaltDecorrelatesTables)
{
    FeatureHasher a(1000, 1), b(1000, 2);
    int same = 0;
    for (std::uint64_t v = 0; v < 1000; ++v)
        same += a(v) == b(v);
    // Expect ~1/1000 agreement rate; allow generous slack.
    EXPECT_LT(same, 15);
}

TEST(FeatureHasher, UniformOccupancy)
{
    const std::uint64_t size = 128;
    FeatureHasher hasher(size, 9);
    std::vector<int> counts(size, 0);
    const int draws = 128000;
    for (int v = 0; v < draws; ++v)
        ++counts[hasher(v)];
    for (int c : counts)
        EXPECT_NEAR(c, draws / size, 6 * std::sqrt(draws / double(size)));
}

TEST(FeatureHasher, RejectsZeroSize)
{
    EXPECT_EXIT(FeatureHasher(0), ::testing::ExitedWithCode(1),
                "hash size");
}

// The divide-free remainder must be `%` exactly, for every 64-bit
// numerator, at the edge divisors and at every RM3 hash size.
TEST(FeatureHasher, DirectRemainderEqualsModulo)
{
    std::vector<std::uint64_t> divisors = {1, 2, 3, (1ULL << 32) - 1,
                                           (1ULL << 32) + 1, UINT64_MAX};
    for (int k = 1; k < 64; ++k)
        divisors.push_back(1ULL << k);
    for (const double scale : {1.0, 1.0 / 32.0})
        for (const FeatureSpec &f : makeRm3(scale).features)
            divisors.push_back(f.hashSize);

    Rng rng(2024);
    for (const std::uint64_t d : divisors) {
        const FeatureHasher hasher(d);
        for (const std::uint64_t x :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, UINT64_MAX})
            ASSERT_EQ(hasher.reduce(x), x % d) << x << " % " << d;
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t x = rng.nextU64();
            ASSERT_EQ(hasher.reduce(x), x % d) << x << " % " << d;
        }
    }
    // 10^6 random numerators over divisors of every bit length.
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t d =
            std::max<std::uint64_t>(1, rng.nextU64() >> (i % 64));
        const std::uint64_t x = rng.nextU64();
        ASSERT_EQ(FeatureHasher(d).reduce(x), x % d) << x << " % " << d;
    }
}

TEST(Birthday, ClosedFormKnownPoints)
{
    // N == H: 1/e of the space stays unused.
    EXPECT_NEAR(expectedUnusedFraction(1e6, 1e6), std::exp(-1.0),
                1e-3);
    // N == 2H: (1/e)^2 unused.
    EXPECT_NEAR(expectedUnusedFraction(2e6, 1e6), std::exp(-2.0),
                1e-3);
    // No inputs: everything unused, nothing collides.
    EXPECT_DOUBLE_EQ(expectedUnusedFraction(0, 100), 1.0);
    EXPECT_DOUBLE_EQ(expectedCollidedFraction(0, 100), 0.0);
}

TEST(Birthday, PigeonholeLowerBound)
{
    // H+1 values in H slots must collide at least once.
    const double occupied = expectedOccupiedSlots(101, 100);
    EXPECT_LT(occupied, 101.0);
}

/** Property sweep: empirical usage tracks the closed form (Fig. 8). */
class BirthdaySweepTest : public ::testing::TestWithParam<double>
{
};

TEST_P(BirthdaySweepTest, EmpiricalMatchesAnalytic)
{
    const double multiple = GetParam(); // hash size / cardinality
    const std::uint64_t n = 50000;
    const auto h = static_cast<std::uint64_t>(n * multiple);
    FeatureHasher hasher(h, 1234);
    const HashUsage usage = measureHashUsage(n, hasher);

    EXPECT_EQ(usage.distinctValues, n);
    EXPECT_EQ(usage.hashSize, h);
    EXPECT_EQ(usage.usedSlots + usage.collidedValues, n);
    EXPECT_NEAR(usage.usageFraction(),
                expectedOccupiedSlots(n, h) / h, 0.01);
    EXPECT_NEAR(usage.collisionFraction(),
                expectedCollidedFraction(n, h), 0.01);
    EXPECT_DOUBLE_EQ(usage.usageFraction() + usage.sparsityFraction(),
                     1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BirthdaySweepTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0,
                                           10.0));

TEST(Birthday, OneEOverUnusedAtEqualSize)
{
    const std::uint64_t n = 100000;
    FeatureHasher hasher(n, 77);
    const HashUsage usage = measureHashUsage(n, hasher);
    EXPECT_NEAR(usage.sparsityFraction(), std::exp(-1.0), 0.01);
}

} // namespace
