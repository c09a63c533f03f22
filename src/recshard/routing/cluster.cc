#include "recshard/routing/cluster.hh"

#include "recshard/engine/execution.hh"

namespace recshard {

RoutingCluster
buildRoutingCluster(const ModelSpec &model,
                    const std::vector<EmbProfile> &profiles,
                    const SystemSpec &system,
                    const ClusterPlanOptions &options)
{
    RoutingCluster cluster;
    cluster.planSet =
        solveNodePlans(model, profiles, system, options);
    cluster.resolvers.reserve(cluster.planSet.plans.size());
    for (const ShardingPlan &plan : cluster.planSet.plans)
        cluster.resolvers.push_back(
            ExecutionEngine::buildResolvers(model, plan, profiles));
    return cluster;
}

} // namespace recshard
