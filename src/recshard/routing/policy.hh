/**
 * @file
 * Pluggable node-selection policies for the routing tier.
 *
 * Three policies, in increasing awareness of cluster state:
 *
 *   - RoundRobin: node = arrival order mod N. Oblivious to both
 *     load and plans; the production default this tier improves on.
 *   - LeastOutstanding: the node with the fewest admitted-but-
 *     incomplete queries — the classic load-aware policy ("join the
 *     shortest queue" at query granularity).
 *   - LocalityAware: maximize the fraction of *this query's*
 *     lookups expected to be served from the node's HBM, computed
 *     from each node's plan (per-table pinned-access fractions) and
 *     the query's materialized per-table lookup counts, minus a
 *     small per-outstanding-query load penalty so a popular slice
 *     cannot collapse onto one overloaded node.
 *
 * The same scoring picks hedge destinations, restricted to nodes
 * other than the primary: hedging onto the replica that already has
 * the query defeats the purpose (and is forbidden by the Router).
 */

#ifndef RECSHARD_ROUTING_POLICY_HH
#define RECSHARD_ROUTING_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/routing/trace.hh"
#include "recshard/serving/node.hh"

namespace recshard {

/** Node-selection policy family. */
enum class RoutingPolicy { RoundRobin, LeastOutstanding,
                           LocalityAware };

/** Display name ("round-robin", ...). */
const char *routingPolicyName(RoutingPolicy policy);

/** All policies, in presentation order. */
const std::vector<RoutingPolicy> &allRoutingPolicies();

/**
 * Per-cluster locality index: node x table -> fraction of that
 * table's accesses the node's plan serves from HBM. Built once from
 * the cluster's plans; scoring a query is then one pass over its
 * per-table lookup counts.
 */
class LocalityIndex
{
  public:
    /** @param plans One plan per node, in node order. */
    explicit LocalityIndex(const std::vector<ShardingPlan> &plans);

    /**
     * Expected fraction of the query's lookups served from `node`'s
     * HBM (in [0, 1]); 0 for a query with no lookups.
     */
    double score(std::uint32_t node, const RoutedQuery &query) const;

    std::uint32_t numNodes() const
    {
        return static_cast<std::uint32_t>(pct.size());
    }

  private:
    /** pct[n][j]: node n's pinned-access fraction for table j. */
    std::vector<std::vector<double>> pct;
};

/** Stateful node chooser shared by primary and hedge routing. */
class NodePicker
{
  public:
    /**
     * @param policy       Selection policy.
     * @param index        Locality index over the cluster's plans.
     * @param load_penalty LocalityAware only: score deducted per
     *                     outstanding query on a node.
     */
    NodePicker(RoutingPolicy policy, const LocalityIndex &index,
               double load_penalty);

    /** Choose the primary node for a query. */
    std::uint32_t pick(const RoutedQuery &query,
                       const std::vector<ServingNode> &nodes);

    /**
     * Choose a hedge destination: the best node *excluding* the
     * primary. Load-aware regardless of policy — the point of the
     * hedge is to find a less-loaded replica. Requires >= 2 nodes.
     */
    std::uint32_t pickHedge(const RoutedQuery &query,
                            const std::vector<ServingNode> &nodes,
                            std::uint32_t exclude) const;

  private:
    RoutingPolicy policy;
    const LocalityIndex &index;
    double loadPenalty;
    std::uint64_t nextRoundRobin = 0;
};

} // namespace recshard

#endif // RECSHARD_ROUTING_POLICY_HH
