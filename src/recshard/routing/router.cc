#include "recshard/routing/router.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** One route() call: the serving kernel plus request hedging. */
class HedgedRun final : public ServingKernel
{
  public:
    HedgedRun(const ModelSpec &model, const RoutingCluster &cluster,
              const RouterConfig &config, const RoutedTrace &trace)
        : ServingKernel(model, cluster, cluster.planSet.plans,
                        cluster.resolvers, trace, config.policy,
                        config.localityLoadPenalty, config.overload,
                        config.server, config.slaSeconds),
          cfg(config.hedge), window(cfg.windowSize),
          armAfter(std::max<std::uint64_t>(cfg.minSamples, 1)),
          hedgeNode(trace.queries.size(), kNoNode)
    {
    }

    RoutingReport report(const RouterConfig &config) const;

    std::vector<RouteDecision>
    decisions() const
    {
        return {state.begin(), state.end()};
    }

  private:
    void
    onArrival(std::uint64_t query, std::uint32_t, double now) override
    {
        // Arm a hedge timer only once the delay estimate exists; a
        // single-node cluster never hedges (both copies on one node
        // would be forbidden anyway).
        if (!state[query].shed && cfg.enabled && nodes.size() >= 2 &&
            latencies.size() >= armAfter)
            schedule(now + hedgeDelay, EventKind::HedgeFire, query,
                     kNoNode);
    }

    void
    onDispatch(std::uint32_t n, std::uint64_t query,
               const NodeDispatch &) override
    {
        // Tied requests: this copy entered service, so recall the
        // sibling if it is still waiting in a queue.
        if (hedgeNode[query] != kNoNode && cfg.tiedRequests &&
            nodes[sibling(query, n)].cancelPending(query))
            ++canceled;
    }

    void
    onServed(const Event &e, double latency) override
    {
        // The hedge delay chases the observed latency quantile,
        // refreshed every refreshInterval completions, not per
        // completion, to keep the quantile sort off the per-event
        // path.
        window.push(latency);
        if (++sinceRefresh >= cfg.refreshInterval ||
            latencies.size() == armAfter) {
            hedgeDelay = std::max(cfg.minDelaySeconds,
                                  window.quantile(cfg.quantile));
            sinceRefresh = 0;
        }
        if (hedgeNode[e.query] == kNoNode)
            return;
        if (e.node == hedgeNode[e.query])
            ++hedgeWins;
        // Still queued on the other node: recall it at zero cost.
        // If it already started, its own Completion is charged as
        // wasted work.
        if (nodes[sibling(e.query, e.node)].cancelPending(e.query))
            ++canceled;
    }

    void
    onEvent(const Event &e) override
    {
        const QueryState &st = state[e.query];
        // Hedge only a query still waiting in a queue: a duplicate
        // of an in-service query cannot beat it.
        if (st.done || st.started || hedgeNode[e.query] != kNoNode)
            return;
        // pickHedge excludes the primary: duplicating onto the node
        // that already holds the query is forbidden.
        const std::uint32_t h = picker.pickHedge(
            trace.queries[e.query], nodes, st.node);
        panic_if(h == st.node, "hedge landed on the primary node");
        hedgeNode[e.query] = h;
        ++hedged;
        enqueue(h, e.query);
        tryDispatch(h, e.time);
    }

    /** The node holding a hedged query's other copy. */
    std::uint32_t
    sibling(std::uint64_t query, std::uint32_t n) const
    {
        return n == state[query].node ? hedgeNode[query]
                                      : state[query].node;
    }

    const HedgeConfig &cfg;
    LatencyWindow window;
    const std::uint64_t armAfter;
    double hedgeDelay = 0.0;
    std::uint64_t sinceRefresh = 0;
    /** Node holding each query's hedge copy; kNoNode if unhedged. */
    std::vector<std::uint32_t> hedgeNode;
    std::uint64_t hedged = 0, hedgeWins = 0, canceled = 0;
};

RoutingReport
HedgedRun::report(const RouterConfig &config) const
{
    RoutingReport r;
    fillTotals(r);
    r.policy = routingPolicyName(config.policy);
    r.hedging = cfg.enabled;
    r.admission = admission->name();
    r.degradation = degrade.enabled();
    r.name = r.policy + (r.hedging ? "+hedge" : "") +
        (r.admission != "admit-all" ? "+" + r.admission : "") +
        (r.degradation ? "+degrade" : "");

    const double Q = static_cast<double>(r.queries);
    r.fullQueries = tierQueries[0];
    r.degradedQueries = r.servedQueries - r.fullQueries;
    r.shedRate = static_cast<double>(r.shedQueries) / Q;
    r.degradedRate = static_cast<double>(r.degradedQueries) / Q;
    r.offeredCandidates = offeredCandidates;
    r.servedCandidates = servedCandidates;
    r.candidateFraction = offeredCandidates
        ? static_cast<double>(servedCandidates) /
            static_cast<double>(offeredCandidates)
        : 0.0;
    r.tierQueries = tierQueries;
    r.tierCandidateFraction.resize(tierQueries.size(), 0.0);
    for (std::size_t t = 0; t < tierQueries.size(); ++t)
        if (tierOfferedCandidates[t])
            r.tierCandidateFraction[t] =
                static_cast<double>(tierServedCandidates[t]) /
                static_cast<double>(tierOfferedCandidates[t]);
    r.maxNodeOutstanding = maxOutstanding;

    r.hedgedQueries = hedged;
    r.hedgeRate = static_cast<double>(hedged) / Q;
    r.hedgeWins = hedgeWins;
    r.canceledCopies = canceled;
    r.wastedSeconds = wastedSeconds;
    r.cacheHitRate = cacheHits + uvm
        ? static_cast<double>(cacheHits) /
            static_cast<double>(cacheHits + uvm)
        : 0.0;

    double total_service = 0.0;
    r.nodeBusySeconds = nodeBusySeconds;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        r.nodeQueries.push_back(nodes[n].dispatched());
        total_service += nodeBusySeconds[n];
    }
    r.wastedWorkFraction =
        total_service > 0.0 ? wastedSeconds / total_service : 0.0;
    if (r.durationSeconds > 0.0)
        r.clusterUtilization = total_service /
            (static_cast<double>(nodes.size()) * r.durationSeconds);
    return r;
}

} // namespace

Router::Router(const ModelSpec &model_,
               const RoutingCluster &cluster_, RouterConfig config)
    : model(model_), cluster(cluster_), cfg(config)
{
    fatal_if(cluster.numNodes() == 0, "router needs >= 1 node");
    fatal_if(cluster.resolvers.size() != cluster.planSet.plans.size(),
             "cluster has ", cluster.resolvers.size(),
             " resolver sets for ", cluster.planSet.plans.size(),
             " plans");
    fatal_if(cfg.slaSeconds < 0.0, "latency SLA must be >= 0, got ",
             cfg.slaSeconds);
    fatal_if(cfg.hedge.quantile < 0.0 || cfg.hedge.quantile > 1.0,
             "hedge quantile ", cfg.hedge.quantile,
             " outside [0,1]");
    fatal_if(cfg.hedge.windowSize == 0,
             "hedge latency window cannot be empty");
    fatal_if(cfg.hedge.refreshInterval == 0,
             "hedge-delay refresh interval must be >= 1");
    // Fail fast on a bad overload config: both are rebuilt (and
    // re-validated) per route() call, but a misconfiguration should
    // not wait for the first trace to surface.
    makeAdmissionController(cfg.overload.admission,
                            cluster.numNodes(), cfg.slaSeconds);
    (void)DegradationPolicy(cfg.overload.degradation);
}

RoutingReport
Router::route(const RoutedTrace &trace,
              std::vector<RouteDecision> *decisions) const
{
    fatal_if(trace.queries.empty(), "no queries to route");
    HedgedRun run(model, cluster, cfg, trace);
    run.run();
    if (decisions != nullptr)
        *decisions = run.decisions();
    return run.report(cfg);
}

double
estimateSaturationQps(const ModelSpec &model,
                      const RoutingCluster &cluster,
                      RouterConfig config, const RoutedTrace &sample)
{
    // Admission and hedging off: every query runs at full fidelity
    // exactly once, so busy seconds / queries is the mean service
    // time the cluster sustains.
    config.hedge.enabled = false;
    config.overload = OverloadConfig{};
    const RoutingReport r =
        Router(model, cluster, config).route(sample);
    double busy = 0.0;
    for (const double s : r.nodeBusySeconds)
        busy += s;
    fatal_if(busy <= 0.0, "saturation probe measured no service "
             "time over ", r.queries, " queries");
    const double mean_service =
        busy / static_cast<double>(r.queries);
    return static_cast<double>(cluster.numNodes()) / mean_service;
}

std::vector<RoutingReport>
routeTrafficComparison(const ModelSpec &model,
                       const RoutingCluster &cluster,
                       const std::vector<RouterConfig> &configs,
                       const RoutedTrace &trace)
{
    fatal_if(configs.empty(), "no router configs to compare");
    std::vector<RoutingReport> reports;
    reports.reserve(configs.size());
    for (const RouterConfig &config : configs)
        reports.push_back(
            Router(model, cluster, config).route(trace));
    return reports;
}

} // namespace recshard
