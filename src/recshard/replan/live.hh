/**
 * @file
 * Live replanning: the closed feedback loop over the serving tier.
 *
 * Every phase up to routing treats the plan as immutable: profile
 * once, solve once, serve forever. Under popularity churn that plan
 * goes stale — the pinned hot set stops matching the live hot set,
 * UVM traffic grows, and tail latency follows (paper Section 3.5
 * quantifies the re-sharding benefit, but offline). This subsystem
 * closes the loop online:
 *
 *   serving -> sketch (replan/sketch.hh, O(1) per lookup)
 *           -> drift trigger (replan/drift.hh, hit-fraction EWMA)
 *           -> planner (core/pipeline.hh assessReshard, any
 *              registry planner, gated by minSpeedup)
 *           -> migration (replan/migration.hh, double-buffered
 *              repins in idle gaps)
 *           -> serving (same nodes, new pin sets, no restart)
 *
 * The LiveReplanServer runs the same virtual-time serving kernel as
 * the Router (routing/des.hh), minus hedging plus migration:
 * per-node sketches are fed at dispatch, drift is checked when an
 * epoch's arrival count is reached, and a confirmed regression
 * launches a PlanMigration. It adds two event kinds: MigrationKick
 * (try to start the next step once the inter-step gap has passed)
 * and MigrationFinish (commit a step; after the last one, adopt the
 * target plan and re-point routing at it). Steps run only when the
 * node is fully idle — migration never preempts or delays an
 * admitted query beyond one in-flight step, and no query is ever
 * shed because of it (the bench enforces both by exit code).
 * Determinism: same (cluster, trace, config) -> bit-identical
 * report, including the epoch log and every migration step.
 */

#ifndef RECSHARD_REPLAN_LIVE_HH
#define RECSHARD_REPLAN_LIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/overload/degradation.hh"
#include "recshard/replan/drift.hh"
#include "recshard/replan/migration.hh"
#include "recshard/replan/sketch.hh"
#include "recshard/routing/cluster.hh"
#include "recshard/routing/policy.hh"
#include "recshard/serving/shard_server.hh"

namespace recshard {

/** One live-replanning evaluation's controls. */
struct ReplanConfig
{
    /** Primary-node selection (no hedging in this loop: a hedge
     *  copy would double-count accesses in the sketches). */
    RoutingPolicy policy = RoutingPolicy::LeastOutstanding;
    /** Admission + degraded-mode serving, exactly as the Router
     *  applies them — migration rides behind the same controller. */
    OverloadConfig overload;
    /** Per-node server knobs (cache rows, batch overhead). */
    ShardServerConfig server;
    double slaSeconds = 0.005;
    /** LocalityAware score deducted per outstanding query. */
    double localityLoadPenalty = 0.1;

    /** Streaming profiler geometry (per node, per table). */
    SketchConfig sketch;
    /** Drift trigger thresholds (per node). */
    DriftConfig drift;
    /** Migration step sizing and pacing. */
    MigrationConfig migration;

    /** Arrivals per epoch: drift is checked (and the latency
     *  window reset) at every epoch boundary. */
    std::uint64_t epochQueries = 2000;
    /** False = static baseline: identical loop, sketches and all,
     *  but drift never triggers a replan. */
    bool replanEnabled = true;
    /** Upper bound on migrations launched over the trace. */
    std::uint32_t maxReplans = 4;
};

/** One epoch of the serving window (between drift checks). */
struct ReplanEpochStats
{
    std::uint64_t index = 0;
    double startTime = 0.0;
    double endTime = 0.0;
    std::uint64_t arrivals = 0;
    /** Completions landing inside the epoch. */
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    /** Served completions that met the SLA. */
    std::uint64_t good = 0;
    /** good / epoch duration — the floor the bench enforces
     *  during migration epochs. */
    double goodput = 0.0;
    /** p99 latency over this epoch's completions only (windowed
     *  via LatencyWindow::reset()). */
    double p99 = 0.0;
    /** A migration step was in flight at some point this epoch. */
    bool migrationActive = false;
};

/** One live-replanning run's measurements. */
struct ReplanReport
{
    std::string name;
    std::uint64_t queries = 0;
    std::uint64_t servedQueries = 0;
    std::uint64_t shedQueries = 0;
    std::uint64_t goodQueries = 0;
    double durationSeconds = 0.0;
    double qps = 0.0;
    double goodput = 0.0;

    double meanLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double maxLatency = 0.0;
    double slaSeconds = 0.0;
    double slaViolationRate = 0.0;

    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
    double uvmAccessFraction = 0.0;

    /** Drift checks that ran the full planner assessment. */
    std::uint64_t assessmentsRun = 0;
    /** Migrations launched (assessment cleared minSpeedup). */
    std::uint64_t replansTriggered = 0;
    /** Migrations whose last step committed. */
    std::uint64_t replansCompleted = 0;
    std::uint64_t migrationSteps = 0;
    std::uint64_t migratedRows = 0;   //!< rows pinned + unpinned
    double migrationSeconds = 0.0;    //!< virtual time in steps
    /** Arrival of the first triggered replan; < 0 when none. */
    double firstReplanTime = -1.0;
    /** Queries shed while their picked node had a migration in
     *  flight — the bench requires exactly zero. */
    std::uint64_t shedDuringMigration = 0;

    std::vector<ReplanEpochStats> epochs;
};

/**
 * Serving loop with the replanning feedback loop attached. The
 * cluster is borrowed as the *initial* condition only: plans and
 * resolvers are copied per serve() call and evolve live, so
 * repeated runs (and the static baseline) are independent.
 */
class LiveReplanServer
{
  public:
    LiveReplanServer(const ModelSpec &model,
                     const RoutingCluster &cluster,
                     ReplanConfig config);

    /** Serve a materialized trace to completion and report. */
    ReplanReport serve(const RoutedTrace &trace) const;

    const ReplanConfig &config() const { return cfg; }

  private:
    const ModelSpec &model;
    const RoutingCluster &cluster;
    ReplanConfig cfg;
};

} // namespace recshard

#endif // RECSHARD_REPLAN_LIVE_HH
