/**
 * @file
 * Per-node sharding plans for a multi-node serving cluster.
 *
 * A routing tier fronts N replica nodes that each serve the whole
 * model, but no node's HBM can pin every table's hot rows. Instead
 * of giving every node the same (thinly spread) plan, the profiled
 * tables are partitioned into N slices balanced by expected traffic
 * *per byte of node HBM*, and node k's slice is solved — through
 * any registered Planner (planner/registry.hh) — against node k's
 * *own* `SystemSpec`. Nodes may be heterogeneous: mixed GPU counts
 * and HBM/UVM budgets per node are first-class, with bigger nodes
 * receiving proportionally more traffic and pinning more hot rows.
 * Tables outside a node's slice stay wholly in that node's UVM
 * tier. The resulting plans are deliberately *heterogeneous*: each
 * table's hot rows are HBM-resident on exactly one node, which is
 * what gives locality-aware routing something to exploit (route a
 * query toward the node that pins the tables dominating its
 * lookups) and gives hedging a second replica with a genuinely
 * different cost profile.
 */

#ifndef RECSHARD_SHARDING_CLUSTER_PLAN_HH
#define RECSHARD_SHARDING_CLUSTER_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/planner/planner.hh"

namespace recshard {

/** Controls for per-node plan solving. */
struct ClusterPlanOptions
{
    /**
     * Serving nodes (replicas) in the cluster, all using the
     * `system` argument of solveNodePlans(). Ignored when
     * `nodeSpecs` is non-empty.
     */
    std::uint32_t numNodes = 2;
    /**
     * Heterogeneous clusters: one SystemSpec per node. When
     * non-empty, the node count is nodeSpecs.size() and node n's
     * slice is solved against nodeSpecs[n].
     */
    std::vector<SystemSpec> nodeSpecs;
    /** Registry name of the planner solving each node's slice. */
    std::string plannerName = "recshard";
    /** Solver controls applied to each node's slice. */
    RecShardOptions solver;
    /** Exact-path controls (used when plannerName == "milp"). */
    MilpShardOptions milp;
};

/** The cluster's sharding decision: one full-model plan per node. */
struct ClusterPlanSet
{
    /** nodeSpecs[n]: the system node n's plan was solved against
     *  (homogeneous clusters repeat the shared spec). */
    std::vector<SystemSpec> nodeSpecs;
    /** slices[n]: table indices whose hot rows node n pins. */
    std::vector<std::vector<std::uint32_t>> slices;
    /** plans[n]: node n's full-model plan (validated). */
    std::vector<ShardingPlan> plans;
    /** diags[n]: node n's uniform solve diagnostics. */
    std::vector<PlanDiagnostics> diags;
};

/**
 * Partition the model's tables into traffic-balanced slices and
 * solve one plan per node.
 *
 * Slice assignment is longest-processing-time over each table's
 * expected byte traffic (accesses/sample x row bytes), normalized
 * by each node's total HBM so larger nodes absorb proportionally
 * more traffic. Node n's slice is solved as a sub-model through
 * the selected planner under node n's full budget; every non-slice
 * table is placed wholly in UVM on node n's least-loaded GPU. Each
 * lifted plan is validated against its node's spec before return.
 *
 * The node solves run concurrently on the parallelFor team
 * (base/parallel.hh), each with its own planner instance, and node
 * n writes only plans[n] and diags[n]: the plan set is the same bit
 * for bit for any worker count. Parallel phases inside one node's
 * solve run inline on that node's worker.
 *
 * @param model    Model every node serves.
 * @param profiles Per-EMB training-data profiles (shared).
 * @param system   Per-node system spec shared by every node;
 *                 overridden node-by-node by options.nodeSpecs.
 * @param options  Node count/specs, planner choice, and controls.
 */
ClusterPlanSet solveNodePlans(const ModelSpec &model,
                              const std::vector<EmbProfile> &profiles,
                              const SystemSpec &system,
                              const ClusterPlanOptions &options = {});

} // namespace recshard

#endif // RECSHARD_SHARDING_CLUSTER_PLAN_HH
