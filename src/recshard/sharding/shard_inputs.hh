/**
 * @file
 * Precomputed per-EMB quantities shared by the exact MILP path and
 * the scalable RecShard solver: the piecewise ICDF (row counts per
 * access-fraction step), byte geometry, and the ablation-adjusted
 * pooling/coverage statistics (paper Section 6.5).
 */

#ifndef RECSHARD_SHARDING_SHARD_INPUTS_HH
#define RECSHARD_SHARDING_SHARD_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "recshard/memsim/system_spec.hh"
#include "recshard/profiler/profiler.hh"

namespace recshard {

/** Statistic switches for the ablation study (Section 6.5). */
struct AblationSwitches
{
    bool usePooling = true;  //!< avg_pool_j in the cost (else 1)
    bool useCoverage = true; //!< coverage_j weighting (else 1)
};

/** Solver-ready view of one EMB. */
struct EmbShardInput
{
    std::uint64_t hashSize = 0;
    std::uint64_t rowBytes = 0;
    std::uint64_t tableBytes = 0;
    double avgPool = 1.0;  //!< post-ablation pooling estimate
    double coverage = 1.0; //!< post-ablation coverage weight
    /**
     * Good-Turing estimate of the access mass on rows the profile
     * never saw (the tail). The ICDF below only ranks *observed*
     * rows, so this mass must be charged to whichever tier holds
     * the unprofiled remainder of the table.
     */
    double missingMass = 0.0;
    /** Rows the profile never touched. */
    std::uint64_t tailRows = 0;
    /** icdfRows[i] = rows covering fraction i/steps of accesses. */
    std::vector<std::uint64_t> icdfRows;

    /** HBM bytes consumed when step i is chosen. */
    std::uint64_t memAtStep(unsigned i) const
    {
        return icdfRows[i] * rowBytes;
    }

    /** Bytes one step of `batch` samples reads from this EMB
     *  (Constraint 11's volume, before coverage weighting). */
    double stepBytes(std::uint32_t batch) const
    {
        return avgPool * static_cast<double>(rowBytes) *
            static_cast<double>(batch);
    }

    /** The ICDF step count this input was built with. */
    unsigned numSteps() const
    {
        return static_cast<unsigned>(icdfRows.size()) - 1;
    }
};

/**
 * EMB count from which the per-EMB solver phases (buildShardInputs
 * and the SplitWalker's increments) run on the parallelFor team.
 * Smaller universes, such as a serving node's few EMBs, stay on the
 * caller's thread, where they finish before a team would start.
 */
constexpr std::size_t kParallelMinEmbs = 64;

/**
 * Build solver inputs for every EMB. Each EMB's input is its own
 * item; from kParallelMinEmbs EMBs the items run on the parallelFor
 * team, with the same result.
 *
 * @param model    Model being sharded.
 * @param profiles Per-EMB training-data profiles.
 * @param steps    ICDF linearization steps (paper: 100).
 * @param ablation Statistic switches.
 */
std::vector<EmbShardInput>
buildShardInputs(const ModelSpec &model,
                 const std::vector<EmbProfile> &profiles,
                 unsigned steps, AblationSwitches ablation = {});

} // namespace recshard

#endif // RECSHARD_SHARDING_SHARD_INPUTS_HH
