#include "recshard/routing/policy.hh"

#include "recshard/base/logging.hh"

namespace recshard {

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::RoundRobin: return "round-robin";
      case RoutingPolicy::LeastOutstanding:
          return "least-outstanding";
      case RoutingPolicy::LocalityAware: return "locality-aware";
    }
    fatal("unknown routing policy");
}

const std::vector<RoutingPolicy> &
allRoutingPolicies()
{
    static const std::vector<RoutingPolicy> kAll = {
        RoutingPolicy::RoundRobin, RoutingPolicy::LeastOutstanding,
        RoutingPolicy::LocalityAware};
    return kAll;
}

LocalityIndex::LocalityIndex(const std::vector<ShardingPlan> &plans)
{
    fatal_if(plans.empty(), "locality index needs >= 1 plan");
    pct.reserve(plans.size());
    for (const ShardingPlan &plan : plans) {
        std::vector<double> node_pct;
        node_pct.reserve(plan.tables.size());
        for (const EmbPlacement &t : plan.tables)
            node_pct.push_back(t.hbmAccessFraction);
        pct.push_back(std::move(node_pct));
        fatal_if(pct.back().size() != pct.front().size(),
                 "cluster plans disagree on table count");
    }
}

double
LocalityIndex::score(std::uint32_t node,
                     const RoutedQuery &query) const
{
    fatal_if(node >= pct.size(), "no node ", node, " in index");
    const std::vector<double> &node_pct = pct[node];
    fatal_if(query.lookups.size() != node_pct.size(),
             "query touches ", query.lookups.size(),
             " tables; index has ", node_pct.size());
    if (query.totalLookups == 0)
        return 0.0;
    double hot = 0.0;
    for (std::size_t j = 0; j < node_pct.size(); ++j)
        hot += node_pct[j] *
            static_cast<double>(query.lookups[j].size());
    return hot / static_cast<double>(query.totalLookups);
}

NodePicker::NodePicker(RoutingPolicy policy_,
                       const LocalityIndex &index_,
                       double load_penalty)
    : policy(policy_), index(index_), loadPenalty(load_penalty)
{
    fatal_if(loadPenalty < 0.0, "load penalty must be >= 0, got ",
             loadPenalty);
}

std::uint32_t
NodePicker::pick(const RoutedQuery &query,
                 const std::vector<ServingNode> &nodes)
{
    const auto N = static_cast<std::uint32_t>(nodes.size());
    fatal_if(N == 0, "no nodes to route to");
    switch (policy) {
      case RoutingPolicy::RoundRobin:
          return static_cast<std::uint32_t>(nextRoundRobin++ % N);

      case RoutingPolicy::LeastOutstanding: {
          std::uint32_t best = 0;
          for (std::uint32_t n = 1; n < N; ++n)
              if (nodes[n].outstanding() <
                  nodes[best].outstanding())
                  best = n;
          return best;
      }

      case RoutingPolicy::LocalityAware: {
          std::uint32_t best = 0;
          double best_score = -1e300;
          for (std::uint32_t n = 0; n < N; ++n) {
              const double s = index.score(n, query) -
                  loadPenalty *
                      static_cast<double>(nodes[n].outstanding());
              if (s > best_score) {
                  best = n;
                  best_score = s;
              }
          }
          return best;
      }
    }
    fatal("unknown routing policy");
}

std::uint32_t
NodePicker::pickHedge(const RoutedQuery &query,
                      const std::vector<ServingNode> &nodes,
                      std::uint32_t exclude) const
{
    const auto N = static_cast<std::uint32_t>(nodes.size());
    fatal_if(N < 2, "hedging needs >= 2 nodes");
    // Load first, locality as the tie-break: the hedge exists to
    // escape a queue, so outstanding depth dominates.
    std::uint32_t best = exclude == 0 ? 1 : 0;
    for (std::uint32_t n = 0; n < N; ++n) {
        if (n == exclude)
            continue;
        const std::uint64_t out_n = nodes[n].outstanding();
        const std::uint64_t out_b = nodes[best].outstanding();
        if (out_n < out_b ||
            (out_n == out_b &&
             index.score(n, query) > index.score(best, query)))
            best = n;
    }
    return best;
}

} // namespace recshard
