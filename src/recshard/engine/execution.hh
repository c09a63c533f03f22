/**
 * @file
 * Trace-driven multi-GPU embedding-operator execution engine.
 *
 * Replays real generated batches through one or more sharding plans
 * simultaneously and measures, per GPU and per iteration, the
 * HBM/UVM access counts, byte traffic, and modeled kernel time.
 * This is the reproduction's stand-in for the paper's 16xA100 node
 * traced with torch.profiler (Section 5.2): the same warm-up +
 * measure window, the same per-GPU timing statistics (Table 3), and
 * the same access-count accounting (Tables 5-6).
 *
 * Evaluating every plan against the *same* generated traffic both
 * halves generation cost and removes sampling noise from strategy
 * comparisons.
 *
 * EMBs are independent (own batch stream, own resolver, own GPU),
 * so replay() generates and resolves them on a parallelFor worker
 * team (base/parallel.hh). The result does not depend on the worker
 * count: each work item (one EMB of one iteration) writes only its
 * own integer counts, and after the join they are summed into
 * per-GPU traffic and priced in the fixed (iteration, EMB, plan)
 * order of a serial loop. Integer sums are exact in any order, and
 * every floating-point step runs after the join, so a ReplayResult
 * is bit-identical on one core or many.
 */

#ifndef RECSHARD_ENGINE_EXECUTION_HH
#define RECSHARD_ENGINE_EXECUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/base/stats.hh"
#include "recshard/datagen/dataset.hh"
#include "recshard/memsim/system_spec.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/** Replay window controls (mirrors the paper's profiling window). */
struct ReplayConfig
{
    std::uint32_t batchSize = 16384;
    /** Iterations before the measured window. Resolvers carry no
     *  state, so warm-up is not replayed; it only moves the window
     *  to batch indices firstBatchIndex + warmupIterations on. */
    std::uint32_t warmupIterations = 2;
    std::uint32_t measureIterations = 10;
    std::uint64_t firstBatchIndex = 0;
};

/** Accumulated per-GPU tier traffic over the measured window. */
struct GpuTraffic
{
    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t hbmBytes = 0;
    std::uint64_t uvmBytes = 0;
};

/** One plan's replay measurements. */
struct ReplayResult
{
    std::string strategy;
    std::uint32_t iterations = 0;
    std::uint32_t gpus = 0;

    /** Mean per-iteration kernel time per GPU, seconds. */
    std::vector<double> gpuMeanTime;
    /** Min/Max/Mean/StdDev of gpuMeanTime (Table 3, in seconds). */
    Summary gpuTimeSummary;
    /** Mean over iterations of the slowest GPU's time (the training
     *  bound used for Fig. 11 speedups), seconds. */
    double meanBottleneckTime = 0.0;
    /** Per-GPU traffic totals over the measured window. */
    std::vector<GpuTraffic> traffic;

    /** Table 5: average HBM accesses per GPU per iteration. */
    double hbmAccessesPerGpuIter() const;
    /** Table 5: average UVM accesses per GPU per iteration. */
    double uvmAccessesPerGpuIter() const;
    /** Fraction of all EMB accesses served from UVM. */
    double uvmAccessFraction() const;
};

/** Replays batches through plans on a modeled system. */
class ExecutionEngine
{
  public:
    /**
     * @param data   Batch source (also defines the model).
     * @param system Target system; plan GPU ids must fit.
     * @param cost   Kernel cost model.
     */
    ExecutionEngine(const SyntheticDataset &data,
                    const SystemSpec &system,
                    const EmbCostModel &cost);

    /**
     * Build per-EMB tier resolvers for a plan from profiled CDFs
     * (the simulation-side equivalent of building remap tables).
     */
    static std::vector<TierResolver>
    buildResolvers(const ModelSpec &model, const ShardingPlan &plan,
                   const std::vector<EmbProfile> &profiles);

    /**
     * Replay the same traffic through all plans.
     *
     * @param plans     Plans to evaluate (all validated).
     * @param resolvers Per-plan resolver vectors (see
     *                  buildResolvers).
     * @param config    Window controls.
     */
    std::vector<ReplayResult>
    replay(const std::vector<const ShardingPlan *> &plans,
           const std::vector<std::vector<TierResolver>> &resolvers,
           const ReplayConfig &config) const;

  private:
    const SyntheticDataset &data;
    SystemSpec system;
    EmbCostModel cost;
};

} // namespace recshard

#endif // RECSHARD_ENGINE_EXECUTION_HH
