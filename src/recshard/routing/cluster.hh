/**
 * @file
 * Cluster assembly: per-node plans plus their execution artifacts.
 *
 * buildRoutingCluster() turns one shared profiling pass into
 * everything the Router needs: traffic-balanced table slices, one
 * plan per node solved by a registry-selected planner against that
 * node's own SystemSpec (sharding/cluster_plan.hh — nodes may be
 * heterogeneous), and per-node tier resolvers. The cluster is
 * immutable once built — Router instances borrow it and keep their
 * own per-run node state, so several policies can be evaluated
 * against the same cluster and the same trace without re-solving
 * anything.
 */

#ifndef RECSHARD_ROUTING_CLUSTER_HH
#define RECSHARD_ROUTING_CLUSTER_HH

#include <vector>

#include "recshard/remap/remap_table.hh"
#include "recshard/sharding/cluster_plan.hh"

namespace recshard {

/** Immutable multi-node serving cluster description. */
struct RoutingCluster
{
    /** Table slices, per-node specs, plans, and diagnostics. */
    ClusterPlanSet planSet;
    /** resolvers[n]: node n's per-EMB tier resolvers. */
    std::vector<std::vector<TierResolver>> resolvers;

    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(planSet.plans.size());
    }

    /** The system node n's plan was solved against. */
    const SystemSpec &nodeSystem(std::uint32_t n) const
    {
        return planSet.nodeSpecs[n];
    }
};

/**
 * Solve per-node plans over shared profiles and build each node's
 * resolvers.
 *
 * @param model    Model every node serves.
 * @param profiles Shared per-EMB profiles (one profiling pass).
 * @param system   System spec shared by every node; heterogeneous
 *                 clusters override it via options.nodeSpecs.
 * @param options  Node count/specs, planner name, and controls.
 */
RoutingCluster
buildRoutingCluster(const ModelSpec &model,
                    const std::vector<EmbProfile> &profiles,
                    const SystemSpec &system,
                    const ClusterPlanOptions &options = {});

} // namespace recshard

#endif // RECSHARD_ROUTING_CLUSTER_HH
