/**
 * @file
 * The unified planning surface: every sharding strategy in this
 * repository is a `Planner` that turns one `PlanRequest` into one
 * `PlanResult`.
 *
 * A `PlanRequest` bundles the model, its profiles, and the
 * `SystemSpec` of the *specific node* being planned — cluster-level
 * callers (sharding/cluster_plan.hh) issue one request per node,
 * each against that node's own spec, which is what makes
 * heterogeneous clusters (mixed GPU counts / HBM budgets per node)
 * a first-class citizen instead of a homogeneity assumption baked
 * into cluster assembly.
 *
 * A `PlanResult` carries the validated `ShardingPlan` plus
 * *uniform* solve diagnostics (`PlanDiagnostics`): the bottleneck
 * cost is computed by one shared estimator with the request's batch
 * size for every strategy, so results from different planners are
 * directly comparable — no strategy gets to grade its own homework
 * with its own internal quantization.
 *
 * Strategies are selected by name through `PlannerRegistry`
 * (registry.hh); six built-ins: five adapt the pre-existing free
 * functions (`recShardPlan`, `milpShardPlan`, `greedyShard`), and
 * "lp-rounding" rounds the MILP's LP relaxation with seeded
 * randomized trials.
 */

#ifndef RECSHARD_PLANNER_PLANNER_HH
#define RECSHARD_PLANNER_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/sharding/milp_formulation.hh"
#include "recshard/sharding/plan.hh"
#include "recshard/sharding/recshard_solver.hh"

namespace recshard {

/** Tuning for the LP-relaxation planner ("lp-rounding"). */
struct LpRoundingOptions
{
    /** Randomized rounding trials; the best candidate plan wins. */
    std::uint32_t trials = 8;
};

/** Everything a planner needs to shard one node. */
struct PlanRequest
{
    /** Model being sharded (borrowed; must outlive the call). */
    const ModelSpec *model = nullptr;
    /** Per-EMB training-data profiles (borrowed). */
    const std::vector<EmbProfile> *profiles = nullptr;
    /**
     * The system of the node this plan targets. Heterogeneous
     * clusters issue one request per node, each with its own spec.
     */
    SystemSpec system;
    /**
     * Batch size used for cost estimation. Authoritative: planners
     * override the batchSize fields of the per-strategy option
     * structs below with this value.
     */
    std::uint32_t batchSize = 16384;
    /** Tuning for the scalable solver (planner "recshard"). */
    RecShardOptions solver;
    /** Tuning for the exact path (planner "milp"). */
    MilpShardOptions milp;
    /**
     * Deterministic PRNG seed for the stochastic strategy
     * ("lp-rounding"). The same request with the same seed
     * reproduces the same PlanResult bit for bit.
     */
    std::uint64_t seed = 0x5eed5eed5eedULL;
    /** Tuning for the LP-rounding planner. */
    LpRoundingOptions rounding;

    /** The common construction: bind the instance, take default
     *  strategy tuning. Callers adjust solver/milp afterwards. */
    static PlanRequest make(const ModelSpec &model,
                            const std::vector<EmbProfile> &profiles,
                            const SystemSpec &system,
                            std::uint32_t batch_size);

    /** fatal() on null model/profiles, size mismatch, bad system. */
    void validate() const;
};

/** Solve diagnostics reported identically by every strategy. */
struct PlanDiagnostics
{
    /** Registry name of the planner that produced the plan. */
    std::string planner;
    /**
     * Estimated bottleneck-GPU embedding cost (seconds/iteration),
     * computed by estimatePlanBottleneck() with the request's batch
     * size — the same evaluator for every strategy.
     */
    double bottleneckCost = 0.0;
    double solveSeconds = 0.0;
    /** False when the strategy proved no plan fits the system. */
    bool feasible = true;
    /** True when an exact method proved (near-)optimality. */
    bool exact = false;
    /**
     * Strategy-defined search effort: local-search moves + swaps
     * for "recshard", branch-and-bound nodes for "milp", 0 for the
     * one-shot greedy baselines.
     */
    std::uint64_t refinementSteps = 0;
    /** Strategy-specific detail, for humans. */
    std::string notes;
};

/** What a planner hands back: the plan plus its diagnostics. */
struct PlanResult
{
    ShardingPlan plan;
    PlanDiagnostics diag;
};

/**
 * Abstract sharding strategy.
 *
 * plan() is a template method: it validates the request, times the
 * strategy hook, fills the uniform diagnostics, and validates the
 * returned plan against the request's system — so every strategy,
 * including externally registered ones, honors the same contract.
 */
class Planner
{
  public:
    virtual ~Planner() = default;

    /** Registry name ("recshard", "milp", "greedy-size", ...). */
    virtual const char *name() const = 0;

    /**
     * Whether the strategy handles production-scale instances
     * (hundreds of EMBs). The exact MILP and lp-rounding (which
     * solves the MILP's LP relaxation) return false; harnesses
     * that sweep the registry over large models skip non-scalable
     * planners.
     */
    virtual bool scalable() const { return true; }

    /** Solve the request; see class comment for the contract. */
    [[nodiscard]] PlanResult plan(const PlanRequest &request) const;

  protected:
    /**
     * Strategy hook: produce the plan. May set diag.feasible,
     * diag.exact, diag.refinementSteps, and diag.notes; planner
     * name, solve time, and bottleneck cost are filled by plan().
     */
    virtual ShardingPlan solve(const PlanRequest &request,
                               PlanDiagnostics &diag) const = 0;
};

class TierResolver;

/**
 * The shared plan evaluator behind PlanDiagnostics::bottleneckCost
 * and the Section 3.5 reshard assessment: estimated max per-GPU
 * coverage-weighted embedding cost under the profiled CDFs (seconds
 * per iteration of `batch` samples).
 *
 * Without `resolvers`, each EMB's per-tier access shares are the
 * plan's own (tierAccessShares). With them, the shares are the
 * profiled counts summed by the tier each row actually resolves to,
 * so a plan built from stale data is priced against the rows it
 * really pinned.
 */
double estimatePlanBottleneck(const ModelSpec &model,
                              const std::vector<EmbProfile> &profiles,
                              const SystemSpec &system,
                              const ShardingPlan &plan,
                              std::uint32_t batch,
                              const std::vector<TierResolver>
                                  *resolvers = nullptr);

} // namespace recshard

#endif // RECSHARD_PLANNER_PLANNER_HH
