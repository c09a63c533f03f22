/**
 * @file
 * Tests for the Section 4.4 multi-tier split: a tiered placement's
 * per-tier access shares (tierAccessShares) are the CDF ranges of
 * its rank blocks, and the rank-greedy split they describe is
 * optimal in expected seconds per byte over the stack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "recshard/base/random.hh"
#include "recshard/tiering/tier_plan.hh"

namespace {

using namespace recshard;

SystemSpec
hbmDramSsd()
{
    return SystemSpec::fromTiers(
        1, {MemoryTierSpec{"HBM", 24 * GB, 1555.0 * GBps},
            MemoryTierSpec{"DRAM", 128 * GB, 12.8 * GBps},
            MemoryTierSpec{"SSD", 2048ULL * GB, 2.0 * GBps}});
}

/** A tiered placement holding `rows` rank-contiguous per tier. */
EmbPlacement
tieredPlacement(std::vector<std::uint64_t> rows)
{
    EmbPlacement t;
    t.hbmRows = rows[0];
    t.tierRows = std::move(rows);
    return t;
}

/** Expected seconds per byte of one access under `shares`. */
double
secondsPerByte(const std::vector<double> &shares,
               const SystemSpec &sys)
{
    double s = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i)
        s += shares[i] / sys.tier(i).bandwidth;
    return s;
}

TEST(MultiTierSplit, HottestRowsGoFastest)
{
    // 10 rows, counts 50..5 on rows 0..9 (rank == row id).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < 10; ++r)
        counts.push_back({r, 50 - 5 * r});
    const FrequencyCdf cdf(10, counts);

    const std::vector<double> shares =
        tierAccessShares(tieredPlacement({2, 3, 5}), cdf, 3);
    ASSERT_EQ(shares.size(), 3u);
    // Access shares are the CDF ranges of each rank block.
    EXPECT_NEAR(shares[0], cdf.accessFraction(2), 1e-12);
    EXPECT_NEAR(shares[1],
                cdf.accessFraction(5) - cdf.accessFraction(2), 1e-12);
    EXPECT_NEAR(shares[0] + shares[1] + shares[2], 1.0, 1e-12);
    EXPECT_GT(shares[0], shares[2]);
}

/**
 * Property: on random CDFs and budgets, the rank-greedy split's
 * expected cost never loses to random permutation-based splits.
 */
class GreedySplitOptimalityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(GreedySplitOptimalityTest, BeatsRandomAssignments)
{
    Rng rng(4200 + GetParam());
    const std::uint64_t rows = rng.uniformInt(5, 60);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < rows; ++r)
        counts.push_back({r, static_cast<std::uint64_t>(
                                 rng.uniformInt(1, 500))});
    const FrequencyCdf cdf(rows, counts);
    const SystemSpec sys = hbmDramSsd();
    std::vector<std::uint64_t> budget = {
        static_cast<std::uint64_t>(rng.uniformInt(0, 20)),
        static_cast<std::uint64_t>(rng.uniformInt(0, 30)),
        rows, // the last tier always fits everything
    };
    // Greedy: each tier takes the next ranks up to its budget.
    std::vector<std::uint64_t> greedy_rows(3, 0);
    std::uint64_t remaining = rows;
    for (std::size_t i = 0; i < 3; ++i) {
        greedy_rows[i] = std::min(budget[i], remaining);
        remaining -= greedy_rows[i];
    }
    const double greedy = secondsPerByte(
        tierAccessShares(tieredPlacement(greedy_rows), cdf, 3), sys);

    // Random row->tier assignments respecting the same budgets.
    const auto &ranked = cdf.rankedRows();
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<std::uint64_t> perm(rows);
        std::iota(perm.begin(), perm.end(), 0);
        for (std::uint64_t i = rows; i > 1; --i)
            std::swap(perm[i - 1],
                      perm[rng.uniformInt(0, static_cast<std::int64_t>(
                                                 i) - 1)]);
        // First budget[0] ranks in perm order go to tier 0, etc.
        double cost = 0.0;
        std::size_t tier = 0;
        std::uint64_t left = budget[0];
        for (std::uint64_t i = 0; i < rows; ++i) {
            while (left == 0 && tier + 1 < sys.numTiers())
                left = budget[++tier];
            --left;
            const std::uint64_t rank = perm[i];
            const double share = rank < ranked.size()
                ? static_cast<double>(cdf.countAtRank(rank)) /
                      static_cast<double>(cdf.totalAccesses())
                : 0.0;
            cost += share / sys.tier(tier).bandwidth;
        }
        EXPECT_LE(greedy, cost + 1e-15);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedySplitOptimalityTest,
                         ::testing::Range(0, 12));

} // namespace
