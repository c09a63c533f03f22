/**
 * @file
 * Tests for the distribution substrate: Zipf sampling, log-normal
 * pooling, and the empirical frequency CDF/ICDF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "recshard/base/random.hh"
#include "recshard/base/stats.hh"
#include "recshard/dist/frequency_cdf.hh"
#include "recshard/dist/sampling.hh"
#include "recshard/dist/zipf.hh"

namespace {

using namespace recshard;

// ---------------------------------------------------------------- Zipf

/** Property sweep: empirical Zipf frequencies match the exact pmf. */
class ZipfPmfTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 double>>
{
};

TEST_P(ZipfPmfTest, EmpiricalMatchesExactPmf)
{
    const auto [n, alpha] = GetParam();
    ZipfSampler zipf(n, alpha);
    Rng rng(0xfeedULL + n * 31 + static_cast<std::uint64_t>(alpha * 10));

    const int draws = 200000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t k = zipf(rng);
        ASSERT_LT(k, n);
        ++counts[k];
    }
    // Compare the head of the distribution (top 10 ranks) where
    // expected counts are large enough for tight bounds.
    for (std::uint64_t k = 0; k < std::min<std::uint64_t>(n, 10); ++k) {
        const double expected = zipf.pmf(k) * draws;
        if (expected < 50)
            continue;
        EXPECT_NEAR(counts[k], expected, 6 * std::sqrt(expected))
            << "rank " << k << " n=" << n << " alpha=" << alpha;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfPmfTest,
    ::testing::Values(
        std::make_tuple(std::uint64_t{10}, 0.0),
        std::make_tuple(std::uint64_t{10}, 0.5),
        std::make_tuple(std::uint64_t{100}, 0.8),
        std::make_tuple(std::uint64_t{100}, 1.0),
        std::make_tuple(std::uint64_t{1000}, 1.2),
        std::make_tuple(std::uint64_t{1000}, 1.6),
        std::make_tuple(std::uint64_t{5000}, 2.0)));

TEST(Zipf, LargeSupportStaysInRange)
{
    const std::uint64_t n = 3'000'000'000ULL; // beyond 32 bits
    ZipfSampler zipf(n, 1.1);
    Rng rng(42);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = zipf(rng);
        ASSERT_LT(k, n);
        max_seen = std::max(max_seen, k);
    }
    // Skewed draw should still produce some deep-tail ranks.
    EXPECT_GT(max_seen, 1'000'000ULL);
}

TEST(Zipf, AlphaZeroIsUniform)
{
    ZipfSampler zipf(16, 0.0);
    Rng rng(7);
    std::vector<int> counts(16, 0);
    const int draws = 64000;
    for (int i = 0; i < draws; ++i)
        ++counts[zipf(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, draws / 16, 6 * std::sqrt(draws / 16.0));
}

TEST(Zipf, StrongerAlphaConcentratesHead)
{
    Rng rng(9);
    auto head_mass = [&](double alpha) {
        ZipfSampler zipf(10000, alpha);
        int head = 0;
        const int draws = 50000;
        for (int i = 0; i < draws; ++i)
            head += zipf(rng) < 100;
        return static_cast<double>(head) / draws;
    };
    const double weak = head_mass(0.5);
    const double strong = head_mass(1.5);
    EXPECT_LT(weak, strong);
    EXPECT_GT(strong, 0.9); // alpha=1.5: top-1% rows dominate
}

TEST(Zipf, RejectsInvalidParameters)
{
    EXPECT_EXIT(ZipfSampler(0, 1.0), ::testing::ExitedWithCode(1),
                "support");
    EXPECT_EXIT(ZipfSampler(10, -0.1), ::testing::ExitedWithCode(1),
                "exponent");
}

TEST(Zipf, ExactCdfIsMonotoneToOne)
{
    ZipfSampler zipf(50, 1.3);
    const auto cdf = zipf.exactCdf();
    ASSERT_EQ(cdf.size(), 50u);
    for (std::size_t i = 1; i < cdf.size(); ++i)
        EXPECT_GT(cdf[i], cdf[i - 1]);
    EXPECT_NEAR(cdf.back(), 1.0, 1e-9);
}

// ----------------------------------------------------------- LogNormal

class LogNormalMeanTest
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(LogNormalMeanTest, MeanMatchesTarget)
{
    const auto [mean, sigma] = GetParam();
    LogNormal dist(mean, sigma);
    Rng rng(1234);
    RunningStat acc;
    for (int i = 0; i < 400000; ++i)
        acc.push(dist(rng));
    // Heavier tails need looser tolerance.
    EXPECT_NEAR(acc.mean(), mean, mean * (0.01 + 0.05 * sigma));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LogNormalMeanTest,
    ::testing::Values(std::make_tuple(1.0, 0.0),
                      std::make_tuple(5.0, 0.5),
                      std::make_tuple(20.0, 1.0),
                      std::make_tuple(190.0, 1.2)));

TEST(PoolingDist, RespectsCapAndMean)
{
    PoolingDist dist(30.0, 0.8, 200);
    Rng rng(55);
    RunningStat acc;
    for (int i = 0; i < 200000; ++i) {
        const std::uint32_t p = dist(rng);
        ASSERT_LE(p, 200u);
        acc.push(p);
    }
    // Cap truncation pulls the mean slightly below target.
    EXPECT_NEAR(acc.mean(), 30.0, 3.0);
}

TEST(PoolingDist, ZeroSigmaIsConstant)
{
    PoolingDist dist(7.0, 0.0, 100);
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(dist(rng), 7u);
}

// -------------------------------------------------------- FrequencyCdf

FrequencyCdf
makeCdf()
{
    // Rows: 100 total; counts 50, 25, 15, 10 for rows 7, 3, 9, 1.
    return FrequencyCdf(100, {{3, 25}, {7, 50}, {1, 10}, {9, 15}});
}

TEST(FrequencyCdf, RankingAndTotals)
{
    const auto cdf = makeCdf();
    EXPECT_EQ(cdf.totalAccesses(), 100u);
    EXPECT_EQ(cdf.touchedRows(), 4u);
    EXPECT_EQ(cdf.hashSize(), 100u);
    EXPECT_DOUBLE_EQ(cdf.unusedFraction(), 0.96);
    const auto &ranked = cdf.rankedRows();
    ASSERT_EQ(ranked.size(), 4u);
    EXPECT_EQ(ranked[0], 7u);
    EXPECT_EQ(ranked[1], 3u);
    EXPECT_EQ(ranked[2], 9u);
    EXPECT_EQ(ranked[3], 1u);
    EXPECT_EQ(cdf.countAtRank(0), 50u);
    EXPECT_EQ(cdf.countAtRank(3), 10u);
}

TEST(FrequencyCdf, AccessFractionIsCdf)
{
    const auto cdf = makeCdf();
    EXPECT_DOUBLE_EQ(cdf.accessFraction(0), 0.0);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(1), 0.50);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(2), 0.75);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(3), 0.90);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(4), 1.0);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(50), 1.0);
}

TEST(FrequencyCdf, RowsForFractionIsInverse)
{
    const auto cdf = makeCdf();
    EXPECT_EQ(cdf.rowsForFraction(0.0), 0u);
    EXPECT_EQ(cdf.rowsForFraction(0.25), 1u);
    EXPECT_EQ(cdf.rowsForFraction(0.50), 1u);
    EXPECT_EQ(cdf.rowsForFraction(0.51), 2u);
    EXPECT_EQ(cdf.rowsForFraction(0.75), 2u);
    EXPECT_EQ(cdf.rowsForFraction(0.90), 3u);
    EXPECT_EQ(cdf.rowsForFraction(1.0), 4u);
}

TEST(FrequencyCdf, RoundTripPropertyOnRandomCounts)
{
    Rng rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint64_t touched = rng.uniformInt(1, 200);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        for (std::uint64_t r = 0; r < touched; ++r)
            counts.push_back({r, static_cast<std::uint64_t>(
                rng.uniformInt(1, 1000))});
        FrequencyCdf cdf(1000, counts);
        for (double p : {0.1, 0.25, 0.5, 0.9, 0.999, 1.0}) {
            const auto k = cdf.rowsForFraction(p);
            // Minimality: k rows cover p, k-1 rows do not.
            EXPECT_GE(cdf.accessFraction(k) + 1e-12, p);
            if (k > 0) {
                EXPECT_LT(cdf.accessFraction(k - 1), p);
            }
        }
    }
}

TEST(FrequencyCdf, IcdfStepsAreMonotone)
{
    const auto cdf = makeCdf();
    const auto steps = cdf.icdfSteps(100);
    ASSERT_EQ(steps.size(), 101u);
    EXPECT_EQ(steps.front(), 0u);
    EXPECT_EQ(steps.back(), 4u);
    for (std::size_t i = 1; i < steps.size(); ++i)
        EXPECT_LE(steps[i - 1], steps[i]);
}

TEST(FrequencyCdf, IcdfStepsMatchPerStepInverseExactly)
{
    // Regression for the monotone-sweep rewrite of icdfSteps(): the
    // sweep must reproduce the per-step rowsForFraction() answers
    // byte for byte — same division, same comparison — across
    // randomized CDFs and step counts (including steps much larger
    // than the number of touched rows, where most entries repeat).
    Rng rng(77001);
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint64_t touched = rng.uniformInt(1, 300);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        for (std::uint64_t r = 0; r < touched; ++r)
            counts.push_back({r, static_cast<std::uint64_t>(
                rng.uniformInt(1, 5000))});
        const FrequencyCdf cdf(2000, counts);
        for (const unsigned steps : {1u, 2u, 3u, 7u, 100u, 1000u}) {
            const auto swept = cdf.icdfSteps(steps);
            ASSERT_EQ(swept.size(), steps + 1u);
            for (unsigned i = 0; i <= steps; ++i) {
                const double fraction =
                    static_cast<double>(i) /
                    static_cast<double>(steps);
                EXPECT_EQ(swept[i], cdf.rowsForFraction(fraction))
                    << "trial " << trial << " steps " << steps
                    << " i " << i;
            }
        }
    }
}

/**
 * icdfSteps() as a linear sweep, the form it had before it galloped:
 * one cursor advanced row by row across the prefix sums, with the
 * same division and comparison. Kept as the reference the gallop
 * must match.
 */
std::vector<std::uint64_t>
linearIcdfSteps(const FrequencyCdf &cdf, unsigned steps)
{
    std::vector<std::uint64_t> cum_counts;
    std::uint64_t sum = 0;
    for (std::uint64_t r = 0; r < cdf.touchedRows(); ++r)
        cum_counts.push_back(sum += cdf.countAtRank(r));
    const std::uint64_t total = cdf.totalAccesses();
    std::vector<std::uint64_t> out = {0};
    std::uint64_t k = 1;
    const std::uint64_t n = cum_counts.size();
    for (unsigned i = 1; i <= steps; ++i) {
        const double fraction =
            std::min(static_cast<double>(i) /
                         static_cast<double>(steps), 1.0);
        if (total == 0 || fraction <= 0.0) {
            out.push_back(0);
            continue;
        }
        while (k < n &&
               static_cast<double>(cum_counts[k - 1]) /
                       static_cast<double>(total) < fraction)
            ++k;
        out.push_back(k);
    }
    return out;
}

TEST(FrequencyCdf, GallopingIcdfStepsMatchTheLinearSweep)
{
    Rng rng(77003);
    std::vector<FrequencyCdf> cdfs = {
        FrequencyCdf(),                  // nothing profiled
        FrequencyCdf(100, {}),           // zero total, rows known
        FrequencyCdf(100, {{42, 7}}),    // one row
        FrequencyCdf(8, {{1, 1}, {5, 1}, {6, 1}}), // all tied
    };
    for (int trial = 0; trial < 60; ++trial) {
        const auto touched = static_cast<std::uint64_t>(
            rng.uniformInt(1, trial < 20 ? 8 : 3000));
        // Heavy ties: mostly counts of 1 and 2 (the profile shape),
        // some from a tiny set, a few huge ones that jump many steps.
        const int shape = trial % 3;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        for (std::uint64_t r = 0; r < touched; ++r) {
            std::int64_t c = 1;
            if (shape == 0)
                c = rng.bernoulli(0.8) ? 1 : 2;
            else if (shape == 1)
                c = rng.uniformInt(1, 4);
            else
                c = rng.bernoulli(0.02) ? rng.uniformInt(1000, 100000)
                                        : rng.uniformInt(1, 3);
            counts.push_back({r * 2, static_cast<std::uint64_t>(c)});
        }
        cdfs.emplace_back(touched * 2 + 1, counts);
    }
    for (std::size_t c = 0; c < cdfs.size(); ++c) {
        // Steps from one to far more than any CDF's rows.
        for (const unsigned steps : {1u, 2u, 3u, 7u, 100u, 101u, 1000u,
                                     10007u}) {
            ASSERT_EQ(cdfs[c].icdfSteps(steps),
                      linearIcdfSteps(cdfs[c], steps))
                << "cdf " << c << " steps " << steps;
        }
    }
}

TEST(FrequencyCdf, InverseConsistencyProperties)
{
    // The CDF/ICDF pair must be a Galois connection on every input:
    //   rowsForFraction(accessFraction(k)) <= k   (no overshoot)
    //   accessFraction(rowsForFraction(p)) >= p   (real coverage)
    // and the ICDF must be monotone in the fraction. Swept over
    // randomized CDFs plus the two degenerate shapes that stress
    // tie-breaking: all-singleton counts and a single touched row.
    Rng rng(77002);
    std::vector<FrequencyCdf> cdfs;
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint64_t touched = rng.uniformInt(1, 250);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        for (std::uint64_t r = 0; r < touched; ++r)
            counts.push_back({r, static_cast<std::uint64_t>(
                rng.uniformInt(1, 2000))});
        cdfs.emplace_back(1000, counts);
    }
    {
        // Every touched row seen exactly once: maximal ties.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ones;
        for (std::uint64_t r = 0; r < 64; ++r)
            ones.push_back({r, 1});
        cdfs.emplace_back(64, ones);
    }
    cdfs.emplace_back(1, std::vector<std::pair<std::uint64_t,
                                               std::uint64_t>>{
                             {0, 12}});

    for (const FrequencyCdf &cdf : cdfs) {
        for (std::uint64_t k = 0; k <= cdf.touchedRows(); ++k)
            EXPECT_LE(cdf.rowsForFraction(cdf.accessFraction(k)), k);
        std::uint64_t prev = 0;
        for (int i = 0; i <= 50; ++i) {
            const double p = static_cast<double>(i) / 50.0;
            const std::uint64_t rows = cdf.rowsForFraction(p);
            EXPECT_GE(rows, prev) << "ICDF not monotone at " << p;
            prev = rows;
            EXPECT_GE(cdf.accessFraction(rows) + 1e-12, p);
        }
    }
}

/**
 * The comparison-sort ranking FrequencyCdf's constructor used before
 * its radix sort: sort by (count desc, row asc), then accumulate.
 * Kept as the oracle for the differential test below.
 */
struct ReferenceRanking
{
    std::vector<std::uint64_t> ranked;
    std::vector<std::uint64_t> countAt;
    std::uint64_t total = 0;
    std::uint64_t singletons = 0;

    explicit ReferenceRanking(
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts)
    {
        std::sort(counts.begin(), counts.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second ? a.second > b.second
                                                  : a.first < b.first;
                  });
        for (const auto &[row, count] : counts) {
            ranked.push_back(row);
            countAt.push_back(count);
            total += count;
            singletons += count == 1;
        }
    }
};

TEST(FrequencyCdf, RadixRankingMatchesComparisonSortReference)
{
    // Count shapes by their top count: heavy ties (3); one and two
    // radix passes (2^11 - 1, 2^21); three (2^30) and five (2^50)
    // passes; and 0 = mostly 1s and 2s with rare counts near 2^50, so
    // ties survive every pass. Input orders: row-ascending (the
    // profiler's), shuffled, and hotter-first (the sketch's). Sizes
    // include empty and single-row input.
    enum Order { kRowAscending, kShuffled, kHotterFirst };
    Rng rng(250);
    for (const std::int64_t high :
         {3LL, (1LL << 11) - 1, 1LL << 21, 1LL << 30, 1LL << 50, 0LL}) {
        for (const Order order :
             {kRowAscending, kShuffled, kHotterFirst}) {
            for (const std::int64_t touched :
                 {0LL, 1LL, static_cast<long long>(rng.uniformInt(2, 64)),
                  static_cast<long long>(rng.uniformInt(500, 4000))}) {
                std::vector<std::pair<std::uint64_t, std::uint64_t>>
                    counts;
                std::uint64_t row = rng.uniformInt(0, 3);
                for (std::int64_t i = 0; i < touched; ++i) {
                    const std::int64_t top = high ? high
                        : rng.bernoulli(0.97)     ? 2
                                                  : 1LL << 50;
                    counts.push_back(
                        {row, static_cast<std::uint64_t>(
                                  rng.uniformInt(1, top))});
                    row += rng.uniformInt(1, 4);
                }
                // Make the top count need the shape's last pass.
                if (high && touched > 0)
                    counts[touched / 2].second =
                        static_cast<std::uint64_t>(high);
                const ReferenceRanking ref(counts);
                if (order == kShuffled) {
                    for (std::size_t i = counts.size(); i > 1; --i)
                        std::swap(counts[i - 1],
                                  counts[rng.uniformInt(0, i - 1)]);
                } else if (order == kHotterFirst) {
                    for (std::size_t k = 0; k < counts.size(); ++k)
                        counts[k] = {ref.ranked[k], ref.countAt[k]};
                }

                const FrequencyCdf cdf(row + 1, counts);
                SCOPED_TRACE(::testing::Message()
                             << "high " << high << " order " << order
                             << " touched " << touched);
                ASSERT_EQ(cdf.rankedRows(), ref.ranked);
                for (std::size_t k = 0; k < ref.countAt.size(); ++k)
                    ASSERT_EQ(cdf.countAtRank(k), ref.countAt[k]);
                EXPECT_EQ(cdf.totalAccesses(), ref.total);
                EXPECT_EQ(cdf.singletonRows(), ref.singletons);
                EXPECT_EQ(cdf.touchedRows(), ref.ranked.size());
            }
        }
    }
}

TEST(FrequencyCdf, EmptyCdfBehaves)
{
    FrequencyCdf cdf;
    EXPECT_EQ(cdf.totalAccesses(), 0u);
    EXPECT_EQ(cdf.rowsForFraction(0.5), 0u);
    EXPECT_DOUBLE_EQ(cdf.accessFraction(10), 1.0);
}

TEST(FrequencyCdf, RejectsTooManyRows)
{
    EXPECT_EXIT(FrequencyCdf(1, {{0, 3}, {1, 2}}),
                ::testing::ExitedWithCode(1), "hash size");
}

TEST(FrequencyCdf, RejectsDuplicateRow)
{
    // Row 7 twice, once hottest and once coldest, so the two copies
    // are not adjacent in rank order.
    EXPECT_EXIT(FrequencyCdf(10, {{7, 5}, {2, 3}, {7, 1}}),
                ::testing::ExitedWithCode(1),
                "profiled row 7 appears twice");
}

TEST(FrequencyCdf, RejectsZeroCount)
{
    EXPECT_EXIT(FrequencyCdf(10, {{4, 2}, {6, 0}}),
                ::testing::ExitedWithCode(1),
                "profiled row 6 has a zero access count");
}

TEST(FrequencyCdf, ZeroCountIsReportedBeforeDuplicateRow)
{
    // Row 5 twice and row 3 with a zero count: the range and
    // zero-count checks run before the duplicate check.
    EXPECT_EXIT(FrequencyCdf(10, {{3, 0}, {5, 2}, {5, 4}}),
                ::testing::ExitedWithCode(1),
                "profiled row 3 has a zero access count");
}

TEST(FrequencyCdf, RejectsRowAtOrPastHashSize)
{
    EXPECT_EXIT(FrequencyCdf(10, {{1, 2}, {10, 1}}),
                ::testing::ExitedWithCode(1),
                "profiled row 10 outside hash size 10");
    EXPECT_EXIT(FrequencyCdf(10, {{11, 4}}),
                ::testing::ExitedWithCode(1),
                "profiled row 11 outside hash size 10");
}

} // namespace
