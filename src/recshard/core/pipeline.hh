/**
 * @file
 * The end-to-end RecShard pipeline (paper Fig. 10).
 *
 * Phase 1: profile a sample of the training data (Section 4.1).
 * Phase 2: solve partitioning + placement (Section 4.2) through a
 *          registry-selected Planner (planner/registry.hh) —
 *          "recshard" by default, any registered strategy by name.
 * Phase 3: build the remapping artifacts (Section 4.3): tier
 *          resolvers for simulation and the 4-byte remap-table
 *          storage accounting of Section 6.6.
 *
 * Also hosts the re-sharding benefit assessment of Section 3.5:
 * how much a fresh plan would beat the incumbent plan under newly
 * profiled (drifted) data.
 */

#ifndef RECSHARD_CORE_PIPELINE_HH
#define RECSHARD_CORE_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/engine/execution.hh"
#include "recshard/planner/planner.hh"
#include "recshard/profiler/profiler.hh"

namespace recshard {

/** Pipeline controls. */
struct PipelineOptions
{
    /** Samples to profile (paper: <=1% of the data store). */
    std::uint64_t profileSamples = 100000;
    /** Phase-2 strategy, by PlannerRegistry name ("recshard",
     *  "milp", "greedy-size", ...). */
    std::string plannerName = "recshard";
    RecShardOptions solver;
    /** Exact-path controls (used when plannerName == "milp"). */
    MilpShardOptions milp;
};

/** Everything the pipeline produces. */
struct PipelineResult
{
    std::vector<EmbProfile> profiles;
    ShardingPlan plan;
    /** Uniform phase-2 diagnostics, whichever planner ran. */
    PlanDiagnostics planDiag;
    std::vector<TierResolver> resolvers;
    /** 4 bytes/row over all split tables (Section 6.6). */
    std::uint64_t remapStorageBytes = 0;
    double profileSeconds = 0.0;
    double solveSeconds = 0.0;
    double remapSeconds = 0.0;
};

/** One-call RecShard pipeline over a synthetic data stream. */
class RecShardPipeline
{
  public:
    /**
     * @param data    Training-data stream (defines the model).
     * @param system  Target training system.
     * @param options Pipeline controls.
     */
    RecShardPipeline(const SyntheticDataset &data,
                     const SystemSpec &system,
                     PipelineOptions options = {});

    /** Run all three phases. */
    PipelineResult run() const;

  private:
    const SyntheticDataset &data;
    SystemSpec sys;
    PipelineOptions opts;
};

/** Outcome of a Section 3.5 re-sharding assessment. */
struct ReshardAssessment
{
    double incumbentCost = 0.0; //!< stale plan under fresh profiles
    double freshCost = 0.0;     //!< fresh plan under fresh profiles
    double speedup = 1.0;       //!< incumbent / fresh
    ShardingPlan freshPlan;
};

/**
 * Quantify the benefit of re-sharding: profile-fresh statistics are
 * given; the incumbent plan (with its original hot sets) is priced
 * against a freshly solved plan. The fresh plan comes from any
 * registered planner (default: the scalable solver). Both are priced
 * by estimatePlanBottleneck; the incumbent through its resolvers,
 * so its shares are the fresh accesses landing on each tier's rows.
 */
ReshardAssessment
assessReshard(const ModelSpec &model,
              const std::vector<EmbProfile> &fresh_profiles,
              const SystemSpec &system, const ShardingPlan &incumbent,
              const std::vector<TierResolver> &incumbent_resolvers,
              const RecShardOptions &solver_options = {},
              const std::string &planner_name = "recshard");

} // namespace recshard

#endif // RECSHARD_CORE_PIPELINE_HH
