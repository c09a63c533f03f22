/**
 * @file
 * The front-end routing tier: policy routing plus request hedging.
 *
 * The Router runs the virtual-time serving kernel (routing/des.hh)
 * over a materialized query trace. The kernel owns query Arrival
 * (pick a node under the configured policy, then consult the
 * overload controller — admit at full fidelity, admit degraded, or
 * shed; see overload/) and Completion (the first finishing copy
 * defines the query's latency). The Router adds one event kind,
 * HedgeFire — the tail-at-scale mitigation: if the query is still
 * waiting in a queue a configurable delay after arrival, duplicate
 * it to the best *other* node. The losing copy is canceled if still
 * queued, or charged as wasted work if it already started. The
 * hedge delay tracks the live latency distribution: it is a
 * quantile (default p95) of a sliding LatencyWindow of observed
 * query latencies, so hedges target exactly the tail.
 *
 * Determinism contract: events are ordered by (virtual time,
 * insertion sequence), nodes execute on the caller's thread, and
 * the trace is pre-materialized — a fixed (cluster, trace, config)
 * triple always produces bit-identical reports. See
 * docs/ARCHITECTURE.md, "The virtual-time determinism contract".
 */

#ifndef RECSHARD_ROUTING_ROUTER_HH
#define RECSHARD_ROUTING_ROUTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/routing/des.hh"

namespace recshard {

/** Request-hedging controls. */
struct HedgeConfig
{
    bool enabled = false;
    /** Hedge a query once it has waited past this quantile of
     *  observed latencies. */
    double quantile = 0.95;
    /** Completed queries observed before hedging arms (the delay
     *  estimate needs a latency distribution to quantile). */
    std::uint64_t minSamples = 64;
    /** Completions between hedge-delay refreshes (the quantile
     *  re-sort stays off the per-event path); must be >= 1. */
    std::uint64_t refreshInterval = 8;
    /**
     * Tied requests (Dean & Barroso, "The Tail at Scale"): the
     * moment either copy of a hedged query starts executing, the
     * sibling still sitting in the other node's queue is canceled,
     * so at most one copy is ever served and hedging's wasted work
     * drops to zero. When false, both copies race to completion
     * and the loser is only canceled if it never started.
     */
    bool tiedRequests = true;
};

/** One Router evaluation's controls. */
struct RouterConfig
{
    RoutingPolicy policy = RoutingPolicy::RoundRobin;
    HedgeConfig hedge;
    /** Overload control: admission policy + degraded-mode serving
     *  (defaults reproduce the historical admit-everything
     *  behavior). */
    OverloadConfig overload;
    /** Per-node server knobs (cache rows, batch overhead). */
    ShardServerConfig server;
    /** Latency SLA violations are scored against. */
    double slaSeconds = 0.005;
    /** LocalityAware: score deducted per outstanding query (the
     *  graceful degradation toward least-outstanding under
     *  contention; pure locality piles popular slices onto one
     *  node). */
    double localityLoadPenalty = 0.1;
};

/** One (policy, hedging, overload) combination's measurements. */
struct RoutingReport
{
    /** "round-robin", "locality-aware+hedge",
     *  "least-outstanding+queue-threshold+degrade", ... */
    std::string name;
    std::string policy;
    bool hedging = false;
    /** Admission controller name ("admit-all", ...). */
    std::string admission;
    /** Degraded-mode serving was enabled. */
    bool degradation = false;

    /** Queries *offered* (the whole trace, shed ones included). */
    std::uint64_t queries = 0;
    /** First arrival to last first-copy completion, seconds. */
    double durationSeconds = 0.0;
    /** Served (admitted, completed) queries per second. */
    double qps = 0.0;

    /**
     * Overload accounting. Conservation invariant (enforced by
     * tests/overload_property_test.cc):
     *   fullQueries + degradedQueries + shedQueries == queries,
     * with servedQueries == fullQueries + degradedQueries.
     */
    std::uint64_t servedQueries = 0;
    std::uint64_t fullQueries = 0;     //!< served at tier 0
    std::uint64_t degradedQueries = 0; //!< served at tier >= 1
    std::uint64_t shedQueries = 0;     //!< rejected at admission
    double shedRate = 0.0;             //!< shed / offered
    double degradedRate = 0.0;         //!< degraded / offered
    /** Served queries that met the SLA. */
    std::uint64_t goodQueries = 0;
    /** Goodput: SLA-compliant served queries per second — the
     *  number overload control is judged on. */
    double goodput = 0.0;
    /** Quality accounting: ranking candidates offered by every
     *  query vs. candidates actually served (shed queries serve
     *  none; degraded queries serve a tier-sized subset). */
    std::uint64_t offeredCandidates = 0;
    std::uint64_t servedCandidates = 0;
    /** servedCandidates / offeredCandidates; 1.0 when unloaded. */
    double candidateFraction = 0.0;
    /** Served queries per fidelity tier (tier 0 = full); sized by
     *  the degradation config's tier count, {fullQueries} when
     *  degradation is off. */
    std::vector<std::uint64_t> tierQueries;
    /** Per-tier candidate fraction (served / offered among that
     *  tier's queries); 0 for an unused tier. */
    std::vector<double> tierCandidateFraction;
    /** Peak queued + running queries on any single node — the
     *  queue-blowup detector the stress tier asserts on. */
    std::uint64_t maxNodeOutstanding = 0;

    /** Latency statistics of *served* queries only (a shed query
     *  has no completion; mixing populations would make the
     *  percentiles meaningless exactly at overload). */
    double meanLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double maxLatency = 0.0;

    double slaSeconds = 0.0;
    /** Served queries with latency above slaSeconds, over served. */
    double slaViolationRate = 0.0;

    /** Queries actually duplicated (never the non-duplicated
     *  majority; hedgeRate = hedgedQueries / queries). */
    std::uint64_t hedgedQueries = 0;
    double hedgeRate = 0.0;
    /** Hedged queries whose *secondary* copy finished first. */
    std::uint64_t hedgeWins = 0;
    /** Losing copies removed from a queue before starting. */
    std::uint64_t canceledCopies = 0;
    /** Service seconds spent on copies that lost the race. */
    double wastedSeconds = 0.0;
    /** wastedSeconds over all service seconds. */
    double wastedWorkFraction = 0.0;

    /** Tier traffic summed over all executed copies. */
    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
    double uvmAccessFraction = 0.0;
    double cacheHitRate = 0.0;

    /** Queries dispatched per node (hedges included). */
    std::vector<std::uint64_t> nodeQueries;
    std::vector<double> nodeBusySeconds;
    /** Node occupancy: summed per-query service seconds over
     *  node-seconds of the window (a node serves one query at a
     *  time, so 1.0 means every node always busy). */
    double clusterUtilization = 0.0;
};

/** Front-end router over an immutable cluster. */
class Router
{
  public:
    /**
     * @param model   Model the cluster serves.
     * @param cluster Per-node plans + resolvers (borrowed; must
     *                outlive the Router).
     * @param config  Policy, hedging, and per-node server knobs.
     */
    Router(const ModelSpec &model, const RoutingCluster &cluster,
           RouterConfig config);

    /**
     * Serve a materialized trace to completion and report. Node
     * state (queues, caches, clocks) is rebuilt per call, so
     * repeated or interleaved evaluations of the same trace are
     * independent and identical.
     *
     * @param decisions When non-null, overwritten with one
     *                  RouteDecision per query (indexed by query
     *                  id) — the deterministic decision stream the
     *                  real-time backend replays.
     */
    RoutingReport
    route(const RoutedTrace &trace,
          std::vector<RouteDecision> *decisions = nullptr) const;

    const RouterConfig &config() const { return cfg; }

  private:
    const ModelSpec &model;
    const RoutingCluster &cluster;
    RouterConfig cfg;
};

/**
 * Evaluate several (policy, hedging) combinations against the same
 * cluster and the same trace; reports come back in input order.
 */
std::vector<RoutingReport>
routeTrafficComparison(const ModelSpec &model,
                       const RoutingCluster &cluster,
                       const std::vector<RouterConfig> &configs,
                       const RoutedTrace &trace);

/**
 * Measure the cluster's saturation arrival rate: serve `sample`
 * once with admission and hedging disabled (otherwise `config` is
 * honored — caches, overheads, policy) and divide the node count by
 * the measured mean per-query service time. Arrival rates are
 * meaningfully expressed as multiples of this rate ("2.5x
 * saturation"), which is how the overload benches and the report
 * harness parameterize their load sweeps.
 */
double estimateSaturationQps(const ModelSpec &model,
                             const RoutingCluster &cluster,
                             RouterConfig config,
                             const RoutedTrace &sample);

} // namespace recshard

#endif // RECSHARD_ROUTING_ROUTER_HH
