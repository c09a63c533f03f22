/**
 * @file
 * Production-scale RecShard solver.
 *
 * Searches the same decision space as the exact MILP (per-EMB GPU
 * assignment x ICDF split step) but exploits its structure so that
 * the paper's full-scale instance (397 EMBs x 16 GPUs x 101 steps,
 * ~47k binaries) solves in about 0.9 s (bench_overhead, Release
 * build, one core of a 4-core Intel Xeon VM):
 *
 *  1. Global split selection: because each EMB's frequency CDF is
 *     concave, the marginal access coverage per HBM byte is
 *     non-increasing along its ICDF; a greedy marginal-benefit
 *     allocation over the pooled HBM budget is optimal for the
 *     relaxed (single-pool) problem.
 *  2. Assignment: longest-processing-time placement of the
 *     resulting per-EMB costs onto GPUs under both capacity limits.
 *  3. Per-GPU re-split: the greedy allocation is re-run inside each
 *     GPU's actual HBM budget, restoring per-GPU feasibility.
 *  4. Local search: move/swap refinement against the bottleneck GPU,
 *     which recovers the MILP's one-shot global balancing. Every
 *     split is a walk over a GPU's increment blocks, cut once per
 *     solve and kept sorted per GPU (sharding/split_walk.hh). A
 *     candidate is priced by one linear walk over the touched GPU's
 *     list that skips the departing EMB and merges the arriving
 *     one's blocks in last; a receiver is not priced at all when the
 *     other GPUs or the donor's new cost already rule the candidate
 *     out. An accepted step re-merges only the two GPUs' lists.
 *     The test suite checks this lands within a small gap of the
 *     exact MILP optimum on randomized instances.
 *
 * Large solves run the per-EMB input and increment builds and the
 * swap search on the parallelFor team (base/parallel.hh); each
 * prices exactly what the serial solve prices and combines it in
 * serial order, so the plan does not depend on the core count.
 */

#ifndef RECSHARD_SHARDING_RECSHARD_SOLVER_HH
#define RECSHARD_SHARDING_RECSHARD_SOLVER_HH

#include <cstdint>

#include "recshard/sharding/plan.hh"
#include "recshard/sharding/shard_inputs.hh"

namespace recshard {

/** Controls for the scalable RecShard solver. */
struct RecShardOptions
{
    std::uint32_t batchSize = 16384;
    unsigned icdfSteps = 100;     //!< paper: 100 uniform steps
    AblationSwitches ablation;
    EmbCostModel::Combine combine = EmbCostModel::Combine::Sum;
};

/** Diagnostics of a RecShard solve. */
struct RecShardStats
{
    double bottleneckCost = 0.0; //!< estimated max per-GPU cost (s)
    std::uint32_t moves = 0;     //!< accepted local-search moves
    std::uint32_t swaps = 0;     //!< accepted local-search swaps
    double solveSeconds = 0.0;
};

/**
 * Compute a fine-grained partitioning and placement plan.
 *
 * @param model    Model being sharded.
 * @param profiles Per-EMB training-data profiles.
 * @param system   Target system (capacities + bandwidths).
 * @param options  Solver controls (ablation switches included).
 * @param stats    Optional out-param for solver diagnostics.
 */
ShardingPlan recShardPlan(const ModelSpec &model,
                          const std::vector<EmbProfile> &profiles,
                          const SystemSpec &system,
                          const RecShardOptions &options = {},
                          RecShardStats *stats = nullptr);

} // namespace recshard

#endif // RECSHARD_SHARDING_RECSHARD_SOLVER_HH
