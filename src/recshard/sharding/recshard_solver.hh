/**
 * @file
 * Production-scale RecShard solver.
 *
 * Searches the same decision space as the exact MILP (per-EMB GPU
 * assignment x ICDF split step) but exploits its structure so that
 * the paper's full-scale instances (397 EMBs x 16 GPUs x 101 steps,
 * ~47k binaries) solve in well under a minute on one core:
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
 *  4. Local search: move/swap refinement against the bottleneck GPU
 *     with re-splitting, which recovers the MILP's one-shot global
 *     balancing. The test suite checks this lands within a small
 *     gap of the exact MILP optimum on randomized instances.
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
    std::uint32_t localSearchRounds = 400;
    /** Consider swaps (not just moves) during local search. */
    bool enableSwaps = true;
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

/** Split decision for a set of EMBs sharing one HBM/UVM budget. */
struct GpuBudgetSplit
{
    bool feasible = false;
    double cost = 0.0;  //!< summed coverage-weighted member costs
    std::vector<std::uint64_t> hbmRows; //!< parallel to members
    std::vector<unsigned> step;         //!< chosen ICDF step
    std::vector<std::uint64_t> tailTaken;
};

/**
 * The solver's per-GPU split step as a standalone building block
 * (used by the lp-rounding planner to repair a GPU assignment into
 * a feasible pin set): greedy marginal-benefit allocation of
 * `cap_hbm` across the listed member EMBs, with a forced spill into
 * leftover HBM when `cap_uvm` would overflow. Optimal for the
 * relaxed per-GPU problem because each profiled ICDF is concave.
 */
GpuBudgetSplit
splitGpuBudget(const std::vector<EmbShardInput> &inputs,
               const EmbCostModel &cost_model, std::uint32_t batch,
               const std::vector<std::uint32_t> &members,
               std::uint64_t cap_hbm, std::uint64_t cap_uvm);

} // namespace recshard

#endif // RECSHARD_SHARDING_RECSHARD_SOLVER_HH
