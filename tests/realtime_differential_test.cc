/**
 * @file
 * Differential tests between the two serving backends: the
 * virtual-time DES Router (the deterministic twin) and the
 * real-threads RealTimeExecutor. The contract under test
 * (routing/realtime.hh): on the same trace, the same cluster, and
 * the same overload configuration, the two backends produce
 * *identical* conservation and fidelity ledgers — offered == full
 * + degraded + shed, the per-tier candidate-quality ledger, and
 * the HBM/UVM/cache traffic counters — across seeds, policies,
 * admission controllers, and worker-thread counts. Only the
 * latency axis (virtual vs. wall-clock) is allowed to differ,
 * which is why no test below ever compares a latency.
 *
 * Because mirror-mode execution crosses MPSC queues and real
 * worker threads, ledger equality here is exactly the proof that
 * the threaded hot path loses, duplicates, and reorders nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/realtime.hh"
#include "recshard/routing/router.hh"

namespace {

using namespace recshard;

/** One seeded cluster + trace, small enough to rebuild per seed. */
struct DiffFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    RoutedTrace trace;

    explicit DiffFixture(std::uint64_t seed,
                         std::uint64_t queries = 2000,
                         double qps = 400000.0)
        : model(embiggen(makeTinyModel(10, 16000, seed))),
          data(model, seed * 2654435761ULL + 1),
          system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = static_cast<std::uint64_t>(
            0.2 * static_cast<double>(model.totalBytes()) /
            system.numGpus);
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 20000, 4096);

        ClusterPlanOptions cp;
        cp.numNodes = 3;
        cluster = buildRoutingCluster(model, profiles, system, cp);

        // Offered load well past saturation, so admission
        // controllers genuinely shed and degrade — a differential
        // test over an unloaded cluster would never exercise the
        // interesting ledger rows.
        LoadConfig load;
        load.qps = qps;
        load.meanQuerySamples = 4.0;
        load.seed = seed ^ 0x60157ULL;
        trace = materializeRoutedTrace(data, load, queries);
    }

    static ModelSpec
    embiggen(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 64;
        return spec;
    }

    RouterConfig
    routerConfig(RoutingPolicy policy) const
    {
        RouterConfig rc;
        rc.policy = policy;
        rc.server.cacheRows = 400;
        rc.server.batchOverheadSeconds = 5e-6;
        rc.slaSeconds = 0.001;
        return rc;
    }
};

/** The three overload shapes every seed is differentially run
 *  under: no control, reject mode, and degrade mode. */
std::vector<RouterConfig>
overloadConfigs(const DiffFixture &fx)
{
    std::vector<RouterConfig> configs;

    RouterConfig admitAll =
        fx.routerConfig(RoutingPolicy::RoundRobin);
    configs.push_back(admitAll);

    RouterConfig reject =
        fx.routerConfig(RoutingPolicy::LeastOutstanding);
    reject.overload.admission.policy = "queue-threshold";
    reject.overload.admission.maxOutstanding = 12;
    configs.push_back(reject);

    RouterConfig degrade =
        fx.routerConfig(RoutingPolicy::LocalityAware);
    degrade.overload.admission.policy = "adaptive";
    degrade.overload.degradation.enabled = true;
    degrade.overload.degradation.shedPressure = 8.0;
    configs.push_back(degrade);

    return configs;
}

RealTimeConfig
realtimeConfig(const RouterConfig &rc,
               const std::string &mode = "mirror")
{
    RealTimeConfig cfg;
    cfg.router = rc;
    cfg.mode = mode;
    return cfg;
}

// ------------------------------------------------- differential

TEST(Differential, LedgersMatchAcrossSeedsAndOverloadModes)
{
    // The acceptance sweep: >= 6 seeds x {admit-all, reject,
    // degrade}, DES ledger == real-threads ledger, byte for byte.
    std::uint64_t total_shed = 0, total_degraded = 0;
    for (const std::uint64_t seed : {3, 7, 11, 19, 23, 31}) {
        const DiffFixture fx(seed);
        for (const RouterConfig &rc : overloadConfigs(fx)) {
            std::vector<RouteDecision> decisions;
            const RoutingReport des =
                Router(fx.model, fx.cluster, rc)
                    .route(fx.trace, &decisions);
            const RealTimeReport rt =
                RealTimeExecutor(fx.model, fx.cluster,
                                 realtimeConfig(rc))
                    .run(fx.trace, decisions);
            const ServingLedger a = ledgerOf(des);
            EXPECT_EQ(a, ledgerOf(rt))
                << "seed " << seed << " config " << rt.name
                << "\n--- DES ---\n" << describeLedger(a)
                << "\n--- realtime ---\n"
                << describeLedger(ledgerOf(rt));
            total_shed += a.shed;
            total_degraded += a.degraded;
            // The wall report must agree with its own ledger.
            EXPECT_EQ(rt.wall.servedQueries, rt.ledger.served);
            EXPECT_EQ(rt.wall.shedQueries, rt.ledger.shed);
        }
    }
    // The sweep exercised the interesting ledger rows, not just
    // the all-served diagonal.
    EXPECT_GT(total_shed, 0u);
    EXPECT_GT(total_degraded, 0u);
}

TEST(Differential, InternalTwinMatchesExternalDesRun)
{
    // The one-argument run() records its own decision stream from
    // an internal DES pass; it must land on the same ledger as a
    // caller-recorded stream (and therefore as the DES itself).
    const DiffFixture fx(5);
    const RouterConfig rc = overloadConfigs(fx)[2];
    const RoutingReport des =
        Router(fx.model, fx.cluster, rc).route(fx.trace);
    const RealTimeReport rt =
        RealTimeExecutor(fx.model, fx.cluster, realtimeConfig(rc))
            .run(fx.trace);
    EXPECT_EQ(ledgerOf(des), ledgerOf(rt))
        << "--- DES ---\n" << describeLedger(ledgerOf(des))
        << "\n--- realtime ---\n"
        << describeLedger(ledgerOf(rt));
}

TEST(Differential, WorkerShardingDoesNotChangeTheLedger)
{
    // 1 worker (fully serialized), 2 workers (one owns two
    // nodes), and 3 workers (one per node) must agree: per-node
    // execution order is fixed by the queues, not by the
    // worker-to-node assignment.
    const DiffFixture fx(13);
    const RouterConfig rc = overloadConfigs(fx)[2];
    std::vector<RouteDecision> decisions;
    const RoutingReport des =
        Router(fx.model, fx.cluster, rc).route(fx.trace,
                                               &decisions);
    for (const std::uint32_t workers : {1u, 2u, 3u}) {
        RealTimeConfig cfg = realtimeConfig(rc);
        cfg.workerThreads = workers;
        const RealTimeReport rt =
            RealTimeExecutor(fx.model, fx.cluster, cfg)
                .run(fx.trace, decisions);
        EXPECT_EQ(rt.workerThreads, workers);
        EXPECT_EQ(ledgerOf(des), ledgerOf(rt))
            << workers << " workers\n--- DES ---\n"
            << describeLedger(ledgerOf(des))
            << "\n--- realtime ---\n"
            << describeLedger(ledgerOf(rt));
    }
}

TEST(Differential, MultiProducerMirrorKeepsTheLedger)
{
    // Mirror mode with several ingest threads partitions the node
    // space, so per-queue arrival order — and with it the cache
    // counters — must survive concurrent production.
    const DiffFixture fx(17);
    const RouterConfig rc = overloadConfigs(fx)[1];
    std::vector<RouteDecision> decisions;
    const RoutingReport des =
        Router(fx.model, fx.cluster, rc).route(fx.trace,
                                               &decisions);
    for (const std::uint32_t producers : {1u, 2u, 3u}) {
        RealTimeConfig cfg = realtimeConfig(rc);
        cfg.producerThreads = producers;
        const RealTimeReport rt =
            RealTimeExecutor(fx.model, fx.cluster, cfg)
                .run(fx.trace, decisions);
        EXPECT_EQ(ledgerOf(des), ledgerOf(rt))
            << producers << " producers";
    }
}

TEST(Differential, RepeatedRealTimeRunsAgreeOnLedgers)
{
    // Wall-clock latencies differ run to run; ledgers never do.
    const DiffFixture fx(29);
    const RouterConfig rc = overloadConfigs(fx)[2];
    const RealTimeExecutor exec(fx.model, fx.cluster,
                                realtimeConfig(rc));
    const RealTimeReport a = exec.run(fx.trace);
    const RealTimeReport b = exec.run(fx.trace);
    EXPECT_EQ(ledgerOf(a), ledgerOf(b));
    EXPECT_EQ(a.executedLookups, b.executedLookups);
}

// -------------------------------------------------- validation
//
// Kept in one suite so the TSan CI job can skip them wholesale
// (--gtest_filter=-Validation.*): gtest death tests fork, which
// ThreadSanitizer tolerates poorly.

TEST(Validation, HedgingIsRejectedAsDesOnly)
{
    const DiffFixture fx(43, 50);
    RouterConfig rc = fx.routerConfig(RoutingPolicy::RoundRobin);
    rc.hedge.enabled = true;
    EXPECT_DEATH(RealTimeExecutor(fx.model, fx.cluster,
                                  realtimeConfig(rc)),
                 "DES-only");
}

TEST(Validation, UnknownModeIsFatal)
{
    const DiffFixture fx(43, 50);
    const RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin);
    EXPECT_DEATH(RealTimeExecutor(fx.model, fx.cluster,
                                  realtimeConfig(rc, "warp")),
                 "known modes");
    EXPECT_DEATH(RealTimeExecutor(fx.model, fx.cluster,
                                  realtimeConfig(rc, "live")),
                 "known modes");
}

/** A valid admit-all decision stream for the corruption tests. */
std::vector<RouteDecision>
recordedDecisions(const DiffFixture &fx, const RouterConfig &rc)
{
    std::vector<RouteDecision> decisions;
    (void)Router(fx.model, fx.cluster, rc).route(fx.trace,
                                                 &decisions);
    return decisions;
}

TEST(Validation, DecisionNamingAMissingNodeIsFatal)
{
    const DiffFixture fx(43, 50);
    const RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin);
    std::vector<RouteDecision> decisions = recordedDecisions(fx, rc);
    decisions[7].node = fx.cluster.numNodes();
    const RealTimeExecutor exec(fx.model, fx.cluster,
                                realtimeConfig(rc));
    EXPECT_DEATH(exec.run(fx.trace, decisions),
                 "query 7 names node 3 of 3");
}

TEST(Validation, DecisionNamingAMissingTierIsFatal)
{
    const DiffFixture fx(43, 50);
    const RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin);
    std::vector<RouteDecision> decisions = recordedDecisions(fx, rc);
    decisions[11].tier = 1; // degradation is off: one tier
    const RealTimeExecutor exec(fx.model, fx.cluster,
                                realtimeConfig(rc));
    EXPECT_DEATH(exec.run(fx.trace, decisions),
                 "query 11 names fidelity tier 1 of 1");
}

TEST(Validation, DecisionKeepingExtraCandidatesIsFatal)
{
    const DiffFixture fx(43, 50);
    const RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin);
    std::vector<RouteDecision> decisions = recordedDecisions(fx, rc);
    decisions[13].keptSamples =
        fx.trace.queries[13].query.samples + 1;
    const RealTimeExecutor exec(fx.model, fx.cluster,
                                realtimeConfig(rc));
    EXPECT_DEATH(exec.run(fx.trace, decisions),
                 "query 13 keeps [0-9]+ of [0-9]+ candidates");
}

} // namespace
