/**
 * @file
 * Empirical per-EMB value-frequency CDF (paper Section 3.1).
 *
 * Built from profiled (row, access count) pairs, the CDF ranks the
 * touched rows of one embedding table by descending access count and
 * answers the two questions every RecShard component asks:
 *
 *   accessFraction(k)  -- what fraction of all accesses do the k
 *                         hottest rows absorb? (the CDF)
 *   rowsForFraction(p) -- how many hottest rows are needed to absorb
 *                         an access fraction p? (the ICDF)
 *
 * Untouched rows (hashSize() - touchedRows()) carry zero observed
 * mass; they are the zero-cost rows RecShard reclaims (Section 3.4).
 */

#ifndef RECSHARD_DIST_FREQUENCY_CDF_HH
#define RECSHARD_DIST_FREQUENCY_CDF_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace recshard {

/** Frequency ranking of one EMB's rows from profiled counts. */
class FrequencyCdf
{
  public:
    /** Empty CDF: nothing profiled, every fraction is covered. */
    FrequencyCdf() = default;

    /**
     * Build from profiled access counts.
     *
     * @param hash_size Total rows of the EMB (post-hash space).
     * @param counts    (row, count) pairs for every touched row, in
     *                  any order; rows must be unique, counts
     *                  positive. Row-ascending input (the
     *                  profiler's) ranks in O(n); other input is
     *                  first sorted by row. Equal counts rank by
     *                  ascending row id.
     */
    FrequencyCdf(std::uint64_t hash_size,
                 std::vector<std::pair<std::uint64_t,
                                       std::uint64_t>> counts);

    /** Total profiled accesses. */
    std::uint64_t totalAccesses() const { return total; }

    /** Rows with at least one profiled access. */
    std::uint64_t touchedRows() const { return ranked.size(); }

    /** Rows of the EMB (touched or not). */
    std::uint64_t hashSize() const { return rows; }

    /** Rows seen exactly once (missing-mass estimator input). */
    std::uint64_t singletonRows() const { return singletons; }

    /** Fraction of the EMB never touched (Fig. 7 sparsity). */
    double unusedFraction() const;

    /** Row ids sorted hottest first (ties broken by row id). */
    const std::vector<std::uint64_t> &rankedRows() const
    {
        return ranked;
    }

    /** Access count of the rank-th hottest row. */
    std::uint64_t countAtRank(std::uint64_t rank) const;

    /**
     * CDF: fraction of all accesses absorbed by the `k` hottest
     * rows. 1.0 for k >= touchedRows() and for an empty CDF.
     */
    double accessFraction(std::uint64_t k) const;

    /**
     * ICDF: minimal number of hottest rows whose cumulative access
     * fraction reaches `fraction` (clamped to [0, 1]).
     */
    std::uint64_t rowsForFraction(double fraction) const;

    /**
     * The ICDF sampled at `steps` uniform fraction steps:
     * steps + 1 monotone row counts, entry i = rowsForFraction(i /
     * steps). This is the linearization the MILP and the scalable
     * solver consume (paper Section 4.2, 100 steps).
     */
    std::vector<std::uint64_t> icdfSteps(unsigned steps) const;

  private:
    std::uint64_t rows = 0;
    std::uint64_t total = 0;
    std::uint64_t singletons = 0;
    std::vector<std::uint64_t> ranked;     //!< row ids, hottest first
    std::vector<std::uint64_t> cumCounts;  //!< prefix sums by rank
};

} // namespace recshard

#endif // RECSHARD_DIST_FREQUENCY_CDF_HH
