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
 *
 * Serving (phase 4, optional): beyond the paper's fixed-iteration
 * replay, the pipeline can evaluate the solved plan under *online*
 * request-driven load — Poisson or bursty arrivals, an admission
 * queue with dynamic batching, per-GPU shard servers with an LRU
 * hot-row cache — and report throughput and p50/p95/p99 latency
 * against an SLA (see serving/serving.hh). Enable it with
 * PipelineOptions::evaluateServing; the report lands in
 * PipelineResult::serving.
 *
 * Routing (phase 5, optional): the multi-node scale-out of phase 4.
 * The profiled tables are sliced across N serving nodes, one plan
 * is solved per node (sharding/cluster_plan.hh), and a front-end
 * Router replays an online query trace through the cluster under a
 * configurable routing policy with optional tail-at-scale request
 * hedging (routing/router.hh) and overload control — admission
 * policies and degraded-mode serving selected through
 * RouterConfig::overload (overload/) — so the phase stays
 * meaningful past cluster saturation. Enable it with
 * PipelineOptions::evaluateRouting; the report lands in
 * PipelineResult::routing.
 *
 * Replanning (phase 6, optional): the closed loop over phase 5.
 * The same cluster serves a *drifting* trace (the dataset's month
 * advances across the stream) while per-node streaming sketches,
 * a drift detector, and a zero-downtime migration engine keep each
 * node's plan matched to the live distribution (replan/). Enable
 * it with PipelineOptions::evaluateReplanning; the report lands in
 * PipelineResult::replan.
 */

#ifndef RECSHARD_CORE_PIPELINE_HH
#define RECSHARD_CORE_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "recshard/engine/execution.hh"
#include "recshard/planner/planner.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/replan/live.hh"
#include "recshard/routing/router.hh"
#include "recshard/serving/serving.hh"

namespace recshard {

/** Phase 5 controls: the multi-node routing evaluation. */
struct RoutingPhaseOptions
{
    /** Serving nodes the cluster fronts (homogeneous: each gets
     *  the pipeline's SystemSpec). Ignored when nodeSpecs is set. */
    std::uint32_t numNodes = 3;
    /** Heterogeneous clusters: one SystemSpec per node. */
    std::vector<SystemSpec> nodeSpecs;
    /** Arrival process for the routed query trace. */
    LoadConfig load;
    /** Queries to generate and route. */
    std::uint64_t numQueries = 2000;
    /** Policy, hedging, and per-node server knobs. */
    RouterConfig router;
};

/** Phase 6 controls: live replanning under a drifting trace. */
struct ReplanPhaseOptions
{
    /** Serving nodes (homogeneous: each gets the pipeline's
     *  SystemSpec). Ignored when nodeSpecs is set. */
    std::uint32_t numNodes = 3;
    /** Heterogeneous clusters: one SystemSpec per node. */
    std::vector<SystemSpec> nodeSpecs;
    /** Arrival process for the drifting query trace. */
    LoadConfig load;
    /** Queries to generate and serve. */
    std::uint64_t numQueries = 6000;
    /** Months the trace sweeps (needs a dataset whose DriftModel
     *  has nonzero hotChurnPerMonth for popularity to move). */
    DriftTraceSchedule schedule;
    /** The feedback loop's knobs (sketch, drift, migration). */
    ReplanConfig replan;
};

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
    /** Run the optional serving phase on the solved plan. */
    bool evaluateServing = false;
    ServingConfig serving;
    /** Run the optional multi-node routing phase. */
    bool evaluateRouting = false;
    RoutingPhaseOptions routing;
    /** Run the optional live-replanning phase. */
    bool evaluateReplanning = false;
    ReplanPhaseOptions replanning;
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
    /** Phase 4 (only when requested): the plan under live load. */
    ServingReport serving;
    /** Phase 5 (only when requested): the multi-node cluster under
     *  routed load. */
    RoutingReport routing;
    /** Phase 6 (only when requested): the cluster under drifting
     *  load with the replanning loop closed. */
    ReplanReport replan;
    double profileSeconds = 0.0;
    double solveSeconds = 0.0;
    double remapSeconds = 0.0;
    double servingSeconds = 0.0;
    double routingSeconds = 0.0;
    double replanSeconds = 0.0;
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

    const SystemSpec &system() const { return sys; }

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
