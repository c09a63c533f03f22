#include "recshard/replan/live.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/core/pipeline.hh"
#include "recshard/routing/des.hh"

namespace recshard {

namespace {

/** One node's feedback-loop state. */
struct NodeReplan
{
    NodeReplan(const ModelSpec &model, const SystemSpec &system,
               const ReplanConfig &cfg)
        : profiler(model, cfg.sketch), detector(cfg.drift),
          cost(system)
    {
    }

    LiveProfiler profiler;
    DriftDetector detector;
    /** Prices migration steps on this node. */
    EmbCostModel cost;
    /** In-flight migration; null while the incumbent fits. */
    std::unique_ptr<PlanMigration> migration;
    /** Plan adopted when the migration's last step commits. */
    ShardingPlan target;
    /** A migration step currently occupies the node's GPUs. */
    bool stepInFlight = false;
};

/** One serve() call: the serving kernel plus the replan loop. */
class ReplanRun final : public ServingKernel
{
  public:
    /**
     * @param plans     Live per-node plans (borrowed; a completed
     *                  migration reassigns its node's entry).
     * @param resolvers Live per-node resolvers (borrowed; mutated
     *                  by every migration commit).
     */
    ReplanRun(const ModelSpec &model, const RoutingCluster &cluster,
              const ReplanConfig &config, const RoutedTrace &trace,
              std::vector<ShardingPlan> &plans,
              std::vector<std::vector<TierResolver>> &resolvers)
        : ServingKernel(model, cluster, plans, resolvers, trace,
                        config.policy, config.localityLoadPenalty,
                        config.overload, config.server,
                        config.slaSeconds),
          cfg(config), livePlans(plans), liveResolvers(resolvers),
          epochWindow(
              std::max<std::uint64_t>(2 * cfg.epochQueries, 64))
    {
        rs.reserve(cluster.numNodes());
        for (std::uint32_t n = 0; n < cluster.numNodes(); ++n)
            rs.emplace_back(model, cluster.nodeSystem(n), cfg);
        r.name = cfg.replanEnabled ? "live-replan" : "static-plan";
        epoch.startTime = firstArrival;
    }

    /** Close the books after run(). */
    ReplanReport finish();

  private:
    bool
    mayDispatch(std::uint32_t n) const override
    {
        // An in-flight step owns the node's GPUs; the head-of-line
        // query waits at most that one step.
        return !rs[n].stepInFlight;
    }

    void
    onDispatch(std::uint32_t n, std::uint64_t query,
               const NodeDispatch &d) override
    {
        // Feed the feedback loop at dispatch: the sketch sees the
        // lookups actually executed (degraded prefix included), the
        // detector the dispatch's tier split.
        rs[n].profiler.observeQuery(trace.queries[query],
                                    state[query].keptSamples);
        rs[n].detector.observe(d.hbmAccesses, d.uvmAccesses,
                               d.cacheHits);
    }

    void
    onArrival(std::uint64_t query, std::uint32_t n,
              double now) override
    {
        if (state[query].shed) {
            ++epoch.shed;
            if (rs[n].migration)
                ++r.shedDuringMigration;
        }
        if (++epoch.arrivals == cfg.epochQueries) {
            closeEpoch(now);
            for (std::uint32_t m = 0; m < rs.size(); ++m)
                maybeReplan(m, now);
        }
    }

    void
    onServed(const Event &, double latency) override
    {
        epochWindow.push(latency);
        ++epoch.served;
        epoch.good += latency <= cfg.slaSeconds;
    }

    void
    afterCompletion(std::uint32_t n, double now) override
    {
        maybeStartStep(n, now);
    }

    void onEvent(const Event &e) override;

    void closeEpoch(double end);
    void maybeStartStep(std::uint32_t n, double now);
    void maybeReplan(std::uint32_t n, double now);
    /** Hand node n's serving over to `plan`. */
    void adopt(std::uint32_t n, ShardingPlan &&plan);

    const ReplanConfig &cfg;
    std::vector<ShardingPlan> &livePlans;
    std::vector<std::vector<TierResolver>> &liveResolvers;
    std::vector<NodeReplan> rs;
    ReplanReport r;
    /** The open epoch's counts; closeEpoch() seals it. */
    ReplanEpochStats epoch;
    // Completions land in a LatencyWindow that is reset at every
    // boundary, so each epoch's p99 covers only its own completions.
    LatencyWindow epochWindow;
};

void
ReplanRun::closeEpoch(double end)
{
    epoch.index = r.epochs.size();
    epoch.endTime = std::max(end, epoch.startTime);
    epoch.goodput = epoch.endTime > epoch.startTime
        ? static_cast<double>(epoch.good) /
            (epoch.endTime - epoch.startTime)
        : 0.0;
    epoch.p99 = epoch.served ? epochWindow.quantile(0.99) : 0.0;
    r.epochs.push_back(epoch);
    epoch = ReplanEpochStats{};
    epoch.startTime = r.epochs.back().endTime;
    epoch.migrationActive = std::any_of(
        rs.begin(), rs.end(),
        [](const NodeReplan &nr) { return nr.stepInFlight; });
    epochWindow.reset();
}

// Start the next migration step iff the node is fully idle: no
// running query, no pending queries and no step already in flight.
// This is what subordinates migration to serving — a node with any
// queued work never spends a second migrating.
void
ReplanRun::maybeStartStep(std::uint32_t n, double now)
{
    NodeReplan &nr = rs[n];
    if (!nr.migration || nr.migration->done() || nr.stepInFlight)
        return;
    if (nodes[n].busy() || nodes[n].hasPending())
        return;
    nr.stepInFlight = true;
    epoch.migrationActive = true;
    const double dt = nr.migration->stepSeconds(nr.cost);
    r.migrationSeconds += dt;
    schedule(now + dt, EventKind::MigrationFinish, 0, n);
}

void
ReplanRun::onEvent(const Event &e)
{
    if (e.kind == EventKind::MigrationKick) {
        maybeStartStep(e.node, e.time);
        return;
    }
    NodeReplan &nr = rs[e.node];
    panic_if(!nr.stepInFlight || !nr.migration,
             "migration step finished on node ", e.node,
             " with no step in flight");
    nr.migration->commitFront();
    nr.stepInFlight = false;
    if (nr.migration->done()) {
        r.migrationSteps += nr.migration->totalSteps();
        r.migratedRows += nr.migration->rowsPinned() +
            nr.migration->rowsUnpinned();
        nr.migration.reset();
        adopt(e.node, std::move(nr.target));
        ++r.replansCompleted;
    }
    tryDispatch(e.node, e.time);
    maybeStartStep(e.node, e.time);
}

void
ReplanRun::adopt(std::uint32_t n, ShardingPlan &&plan)
{
    livePlans[n] = std::move(plan);
    repointLocality();
    rs[n].detector.rebaseline();
    rs[n].profiler.decay();
}

// Epoch-boundary drift check for one node; launches at most one
// migration per node at a time.
void
ReplanRun::maybeReplan(std::uint32_t n, double now)
{
    if (!cfg.replanEnabled || r.replansTriggered >= cfg.maxReplans)
        return;
    NodeReplan &nr = rs[n];
    if (nr.migration || !nr.detector.drifted())
        return;
    const std::vector<std::uint32_t> &slice =
        cluster.planSet.slices[n];
    if (slice.empty())
        return;

    // Confirm with the planner: price the incumbent against a fresh
    // solve of the node's slice under the live sketch profiles —
    // the same sub-model shape solveNodePlans() used.
    std::vector<EmbProfile> live_profiles =
        nr.profiler.exportProfiles();
    ModelSpec sub;
    sub.name = model.name + "/replan" + std::to_string(n);
    std::vector<EmbProfile> sub_profiles;
    std::vector<TierResolver> sub_resolvers;
    ShardingPlan sub_incumbent;
    sub_incumbent.strategy = livePlans[n].strategy;
    sub.features.reserve(slice.size());
    sub_profiles.reserve(slice.size());
    sub_resolvers.reserve(slice.size());
    sub_incumbent.tables.reserve(slice.size());
    for (const std::uint32_t j : slice) {
        sub.features.push_back(model.features[j]);
        sub_profiles.push_back(std::move(live_profiles[j]));
        sub_resolvers.push_back(liveResolvers[n][j]);
        sub_incumbent.tables.push_back(livePlans[n].tables[j]);
    }
    ++r.assessmentsRun;
    const ReshardAssessment a = assessReshard(
        sub, sub_profiles, cluster.nodeSystem(n), sub_incumbent,
        sub_resolvers);
    if (a.speedup < cfg.drift.minSpeedup) {
        // Not worth moving rows for: accept the current hit
        // fraction as the new normal so the (expensive) assessment
        // does not rerun every epoch.
        nr.detector.rebaseline();
        return;
    }

    // Lift the fresh slice plan onto the full model, KEEPING the
    // incumbent GPU assignment: each server's table list is fixed
    // at construction, so only pin counts may move.
    const std::uint32_t J = model.numFeatures();
    ShardingPlan target = livePlans[n];
    std::vector<FrequencyCdf> cdfs(J);
    for (std::size_t i = 0; i < slice.size(); ++i) {
        const std::uint32_t j = slice[i];
        target.tables[j].hbmRows = a.freshPlan.tables[i].hbmRows;
        cdfs[j] = std::move(sub_profiles[i].cdf);
        target.tables[j].hbmAccessFraction =
            cdfs[j].accessFraction(target.tables[j].hbmRows);
    }
    // The fresh solve packed rows under its own GPU layout; pinning
    // them under the incumbent layout can overflow a GPU. Trim
    // deterministically: shrink the biggest pinned slice table on
    // the overflowing GPU until it fits.
    const SystemSpec &sys = cluster.nodeSystem(n);
    for (std::uint32_t g = 0; g < sys.numGpus; ++g) {
        for (;;) {
            const std::uint64_t bytes = target.hbmBytesOnGpu(model, g);
            if (bytes <= sys.hbm.capacityBytes)
                break;
            std::uint32_t victim = kNoNode;
            for (const std::uint32_t j : slice)
                if (target.tables[j].gpu == g &&
                    target.tables[j].hbmRows > 0 &&
                    (victim == kNoNode ||
                     target.tables[j].hbmRows >
                         target.tables[victim].hbmRows))
                    victim = j;
            panic_if(victim == kNoNode, "GPU ", g,
                     " over HBM budget with no pinned slice table "
                     "to trim");
            const std::uint64_t row_bytes =
                model.features[victim].rowBytes();
            const std::uint64_t overflow =
                bytes - sys.hbm.capacityBytes;
            const std::uint64_t cut =
                std::min(target.tables[victim].hbmRows,
                         (overflow + row_bytes - 1) / row_bytes);
            target.tables[victim].hbmRows -= cut;
            target.tables[victim].hbmAccessFraction =
                cdfs[victim].accessFraction(
                    target.tables[victim].hbmRows);
        }
    }
    auto migration = std::make_unique<PlanMigration>(
        model, target, cdfs, slice, liveResolvers[n], cfg.migration);
    // A tiered target describes where rows sit once the migration
    // lands, which is no rank range of the live CDF: its per-tier
    // access shares are left to be derived (tierAccessShares()).
    for (const std::uint32_t j : slice) {
        if (!target.tables[j].tiered())
            continue;
        target.tables[j].tierRows = migration->tierRowsAfter(j);
        target.tables[j].tierAccessFraction.clear();
    }
    // Unpinned rows land in tier 1, and no trim can take them out
    // again: a target that overflows tier 1 keeps the incumbent.
    for (std::uint32_t g = 0; g < sys.numGpus; ++g) {
        if (target.tierBytesOnGpu(model, g, 1) >
            sys.tier(1).capacityBytes) {
            nr.detector.rebaseline();
            return;
        }
    }
    target.validate(model, sys);
    if (migration->done()) {
        // Membership unchanged (only fractions moved): adopt the
        // plan outright, no migration to run.
        adopt(n, std::move(target));
        return;
    }
    nr.target = std::move(target);
    nr.migration = std::move(migration);
    ++r.replansTriggered;
    if (r.firstReplanTime < 0.0)
        r.firstReplanTime = now;
    schedule(now, EventKind::MigrationKick, 0, n);
}

ReplanReport
ReplanRun::finish()
{
    for (std::uint32_t n = 0; n < rs.size(); ++n)
        panic_if(rs[n].migration != nullptr, "node ", n,
                 " finished with an unfinished migration");
    if (epoch.arrivals || epoch.served || epoch.shed)
        closeEpoch(lastFinish);
    fillTotals(r);
    return r;
}

} // namespace

LiveReplanServer::LiveReplanServer(const ModelSpec &model_,
                                   const RoutingCluster &cluster_,
                                   ReplanConfig config)
    : model(model_), cluster(cluster_), cfg(std::move(config))
{
    fatal_if(cluster.numNodes() == 0,
             "live replanning needs >= 1 node");
    fatal_if(cfg.slaSeconds < 0.0, "latency SLA must be >= 0");
    fatal_if(cfg.epochQueries == 0,
             "epochs need >= 1 arrival each");
    cfg.sketch.validate();
    cfg.drift.validate();
    cfg.migration.validate();
    // Fail fast on a bad overload config (rebuilt per serve()).
    makeAdmissionController(cfg.overload.admission,
                            cluster.numNodes(), cfg.slaSeconds);
    (void)DegradationPolicy(cfg.overload.degradation);
}

ReplanReport
LiveReplanServer::serve(const RoutedTrace &trace) const
{
    fatal_if(trace.queries.empty(), "no queries to serve");
    // Live state: the cluster is the initial condition only. Plans
    // and resolvers are copied into vectors that are never resized,
    // so the references ServingNode/PlanMigration borrow stay valid
    // while elements are reassigned or mutated in place.
    std::vector<ShardingPlan> plans = cluster.planSet.plans;
    std::vector<std::vector<TierResolver>> resolvers =
        cluster.resolvers;
    ReplanRun run(model, cluster, cfg, trace, plans, resolvers);
    run.run();
    return run.finish();
}

} // namespace recshard
