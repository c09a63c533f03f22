/**
 * @file
 * Tests for the multi-node routing tier: per-node plan solving,
 * routing policies, request hedging with tied-request cancelation,
 * and the virtual-time determinism the whole tier relies on. The
 * cluster, trace, and every router run are seeded and simulated in
 * virtual time, so all expectations are deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/router.hh"

namespace {

using namespace recshard;

/**
 * Shared cluster fixture, mirroring bench_routing_policies'
 * contended regime: three 2-GPU nodes, each able to pin ~20% of
 * the model, offered load around 70% of cluster capacity — the
 * regime where routing decides the tail.
 */
struct RoutingFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    RoutedTrace trace;

    RoutingFixture()
        : model(embiggen(makeTinyModel(12, 20000, 7))),
          data(model, 7 * 2654435761ULL + 1),
          system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = static_cast<std::uint64_t>(
            0.2 * static_cast<double>(model.totalBytes()) /
            system.numGpus);
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 30000, 4096);

        ClusterPlanOptions cp;
        cp.numNodes = 3;
        cluster = buildRoutingCluster(model, profiles, system, cp);

        LoadConfig load;
        load.qps = 180000.0;
        load.meanQuerySamples = 4.0;
        load.seed = 7 ^ 0x60157ULL;
        trace = materializeRoutedTrace(data, load, 5000);
    }

    static ModelSpec
    embiggen(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 128;
        return spec;
    }

    RouterConfig
    routerConfig(RoutingPolicy policy, bool hedging) const
    {
        RouterConfig rc;
        rc.policy = policy;
        rc.hedge.enabled = hedging;
        rc.server.cacheRows = 500;
        rc.server.batchOverheadSeconds = 5e-6;
        rc.slaSeconds = 0.001;
        return rc;
    }

    RoutingReport
    route(RoutingPolicy policy, bool hedging) const
    {
        return Router(model, cluster,
                      routerConfig(policy, hedging))
            .route(trace);
    }
};

const RoutingFixture &
fixture()
{
    static const RoutingFixture fx;
    return fx;
}

// ---------------------------------------------- per-node planning

TEST(ClusterPlan, SlicesPartitionTheModel)
{
    const RoutingFixture &fx = fixture();
    const ClusterPlanSet &set = fx.cluster.planSet;
    ASSERT_EQ(set.slices.size(), 3u);
    ASSERT_EQ(set.plans.size(), 3u);

    std::set<std::uint32_t> seen;
    for (const auto &slice : set.slices) {
        EXPECT_FALSE(slice.empty());
        for (const std::uint32_t j : slice) {
            EXPECT_TRUE(seen.insert(j).second)
                << "table " << j << " in two slices";
        }
    }
    EXPECT_EQ(seen.size(), fx.model.numFeatures());
}

TEST(ClusterPlan, NodesPinOnlyTheirSlice)
{
    const RoutingFixture &fx = fixture();
    const ClusterPlanSet &set = fx.cluster.planSet;
    for (std::size_t n = 0; n < set.plans.size(); ++n) {
        const ShardingPlan &plan = set.plans[n];
        ASSERT_EQ(plan.tables.size(), fx.model.numFeatures());
        std::uint64_t pinned_in_slice = 0;
        for (std::uint32_t j = 0; j < plan.tables.size(); ++j) {
            const bool in_slice = std::binary_search(
                set.slices[n].begin(), set.slices[n].end(), j);
            if (in_slice) {
                pinned_in_slice += plan.tables[j].hbmRows;
            } else {
                // Foreign tables live wholly in UVM on this node.
                EXPECT_EQ(plan.tables[j].hbmRows, 0u);
                EXPECT_DOUBLE_EQ(
                    plan.tables[j].hbmAccessFraction, 0.0);
            }
        }
        // The node spends its HBM budget on its own slice.
        EXPECT_GT(pinned_in_slice, 0u);
    }
}

TEST(ClusterPlan, RejectsMoreNodesThanTables)
{
    const RoutingFixture &fx = fixture();
    ClusterPlanOptions cp;
    cp.numNodes = fx.model.numFeatures() + 1;
    EXPECT_DEATH(
        solveNodePlans(fx.model, fx.profiles, fx.system, cp),
        "cannot slice");
}

// ------------------------------------------------------ policies

TEST(Routing, AllPoliciesServeEveryQueryExactlyOnce)
{
    const RoutingFixture &fx = fixture();
    for (const RoutingPolicy policy : allRoutingPolicies()) {
        const RoutingReport r = fx.route(policy, false);
        EXPECT_EQ(r.queries, fx.trace.queries.size());
        EXPECT_EQ(r.hedgedQueries, 0u);
        EXPECT_DOUBLE_EQ(r.hedgeRate, 0.0);
        // Without hedging, dispatches across nodes == queries.
        const std::uint64_t dispatched = std::accumulate(
            r.nodeQueries.begin(), r.nodeQueries.end(),
            std::uint64_t{0});
        EXPECT_EQ(dispatched, r.queries);
        EXPECT_GT(r.qps, 0.0);
        EXPECT_GT(r.p50Latency, 0.0);
        EXPECT_LE(r.p50Latency, r.p95Latency);
        EXPECT_LE(r.p95Latency, r.p99Latency);
        EXPECT_LE(r.p99Latency, r.maxLatency);
        EXPECT_GT(r.clusterUtilization, 0.0);
    }
}

TEST(Routing, RoundRobinSpreadsQueriesEvenly)
{
    const RoutingFixture &fx = fixture();
    const RoutingReport r =
        fx.route(RoutingPolicy::RoundRobin, false);
    ASSERT_EQ(r.nodeQueries.size(), 3u);
    const std::uint64_t q = fx.trace.queries.size();
    for (const std::uint64_t n : r.nodeQueries) {
        EXPECT_GE(n, q / 3 - 1);
        EXPECT_LE(n, q / 3 + 1);
    }
}

TEST(Routing, DeterministicAcrossRuns)
{
    const RoutingFixture &fx = fixture();
    const RoutingReport a =
        fx.route(RoutingPolicy::LocalityAware, true);
    const RoutingReport b =
        fx.route(RoutingPolicy::LocalityAware, true);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.hedgedQueries, b.hedgedQueries);
    EXPECT_EQ(a.hedgeWins, b.hedgeWins);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
    EXPECT_EQ(a.nodeQueries, b.nodeQueries);
}

TEST(Routing, LocalityIndexPrefersThePinningNode)
{
    const RoutingFixture &fx = fixture();
    const LocalityIndex index(fx.cluster.planSet.plans);

    // A query that only touches tables of node n's slice must
    // score strictly higher on node n than anywhere else.
    for (std::uint32_t n = 0; n < 3; ++n) {
        RoutedQuery rq;
        rq.lookups.resize(fx.model.numFeatures());
        for (const std::uint32_t j : fx.cluster.planSet.slices[n]) {
            if (fx.cluster.planSet.plans[n].tables[j].hbmRows == 0)
                continue;
            rq.lookups[j] = {0, 1, 2, 3}; // hottest-ranked rows
            rq.totalLookups += 4;
        }
        ASSERT_GT(rq.totalLookups, 0u);
        const double own = index.score(n, rq);
        for (std::uint32_t m = 0; m < 3; ++m) {
            if (m != n) {
                EXPECT_GT(own, index.score(m, rq))
                    << "node " << n << " vs " << m;
            }
        }
    }
}

TEST(Routing, LocalityRoutingReducesUvmTraffic)
{
    const RoutingFixture &fx = fixture();
    const RoutingReport rr =
        fx.route(RoutingPolicy::RoundRobin, false);
    const RoutingReport loc =
        fx.route(RoutingPolicy::LocalityAware, false);
    // Identical traffic and plans: routing toward the node that
    // pins a query's hot tables serves more lookups from HBM.
    EXPECT_LT(loc.uvmAccessFraction, rr.uvmAccessFraction);
}

// ------------------------------------------------------- hedging

TEST(Hedging, PrimaryWinsAreCountedAndLosersCanceled)
{
    const RoutingFixture &fx = fixture();
    RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin, true);
    // Aggressive hedging so both outcomes occur: hedge after the
    // median observed latency, armed almost immediately.
    rc.hedge.quantile = 0.5;
    rc.hedge.minSamples = 8;
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.trace);

    ASSERT_GT(r.hedgedQueries, 0u);
    // Some hedges lose the race to their primary...
    EXPECT_LT(r.hedgeWins, r.hedgedQueries);
    // ...and some win it; either way every query resolves once.
    EXPECT_GT(r.hedgeWins, 0u);
    EXPECT_EQ(r.queries, fx.trace.queries.size());
    // Tied requests: exactly one copy of every hedged query runs,
    // so the sibling was always canceled and no work was wasted.
    EXPECT_EQ(r.canceledCopies, r.hedgedQueries);
    EXPECT_DOUBLE_EQ(r.wastedSeconds, 0.0);
    const std::uint64_t dispatched = std::accumulate(
        r.nodeQueries.begin(), r.nodeQueries.end(),
        std::uint64_t{0});
    EXPECT_EQ(dispatched, r.queries);
}

TEST(Hedging, RaceModeChargesTheLosingCopy)
{
    const RoutingFixture &fx = fixture();
    RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin, true);
    rc.hedge.quantile = 0.5;
    rc.hedge.minSamples = 8;
    rc.hedge.tiedRequests = false; // both copies may run
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.trace);

    ASSERT_GT(r.hedgedQueries, 0u);
    // Without tied-request cancelation some losing copies run to
    // completion and their service time is charged as waste.
    EXPECT_GT(r.wastedSeconds, 0.0);
    EXPECT_GT(r.wastedWorkFraction, 0.0);
    const std::uint64_t dispatched = std::accumulate(
        r.nodeQueries.begin(), r.nodeQueries.end(),
        std::uint64_t{0});
    // Started copies = queries + hedges that escaped cancelation.
    EXPECT_EQ(dispatched,
              r.queries + r.hedgedQueries - r.canceledCopies);
}

TEST(Hedging, SingleNodeClusterNeverHedges)
{
    const RoutingFixture &fx = fixture();
    ClusterPlanOptions cp;
    cp.numNodes = 1;
    const RoutingCluster solo =
        buildRoutingCluster(fx.model, fx.profiles, fx.system, cp);
    RouterConfig rc =
        fx.routerConfig(RoutingPolicy::LeastOutstanding, true);
    rc.hedge.quantile = 0.5;
    rc.hedge.minSamples = 1;
    const RoutingReport r =
        Router(fx.model, solo, rc).route(fx.trace);
    // Both replicas of a hedge on the same node are forbidden, and
    // with one node there is no other replica: nothing duplicates.
    EXPECT_EQ(r.hedgedQueries, 0u);
    EXPECT_DOUBLE_EQ(r.hedgeRate, 0.0);
    EXPECT_EQ(r.queries, fx.trace.queries.size());
}

TEST(Hedging, RateCountsOnlyDuplicatedQueries)
{
    const RoutingFixture &fx = fixture();
    // Hedging arms only after more completions than the trace has
    // queries: no timer is ever set, so nothing ever duplicates.
    RouterConfig rc =
        fx.routerConfig(RoutingPolicy::RoundRobin, true);
    rc.hedge.minSamples = fx.trace.queries.size() + 1;
    const RoutingReport never =
        Router(fx.model, fx.cluster, rc).route(fx.trace);
    EXPECT_EQ(never.hedgedQueries, 0u);
    EXPECT_DOUBLE_EQ(never.hedgeRate, 0.0);

    // With the p95 trigger, only the tail is duplicated: the rate
    // is positive yet far below 1, and consistent with the count.
    const RoutingReport some =
        fx.route(RoutingPolicy::RoundRobin, true);
    EXPECT_GT(some.hedgedQueries, 0u);
    EXPECT_LT(some.hedgeRate, 0.25);
    EXPECT_DOUBLE_EQ(some.hedgeRate,
                     static_cast<double>(some.hedgedQueries) /
                         static_cast<double>(some.queries));
}

// ------------------------------------------- cancelable queues

TEST(ServingNode, PendingQueriesCancelButRunningOnesDoNot)
{
    const RoutingFixture &fx = fixture();
    ServingNode node(0, fx.model, fx.cluster.planSet.plans[0],
                     fx.cluster.resolvers[0], fx.system, {});
    node.enqueue(0);
    node.enqueue(1);
    EXPECT_EQ(node.outstanding(), 2u);

    const RoutedQuery &rq = fx.trace.queries[0];
    const NodeDispatch d =
        node.dispatchNext(0.0, rq.asBatch(0.0), rq.lookups);
    EXPECT_GT(d.finishTime, 0.0);
    EXPECT_TRUE(node.busy());

    // Query 0 started: it cannot be recalled. Query 1 is pending:
    // it can.
    EXPECT_FALSE(node.cancelPending(0));
    EXPECT_TRUE(node.cancelPending(1));
    EXPECT_FALSE(node.cancelPending(1)); // already gone
    EXPECT_EQ(node.outstanding(), 1u);

    node.completeRunning();
    EXPECT_FALSE(node.busy());
    EXPECT_EQ(node.outstanding(), 0u);
    EXPECT_EQ(node.dispatched(), 1u);
}

// ------------------------------------------- cache admission

TEST(Routing, AdmissionPolicyThreadsThroughTheRouter)
{
    // RouterConfig carries the per-node ShardServerConfig, so an
    // admission policy selected there must reach every node's
    // per-GPU cache.
    const RoutingFixture &fx = fixture();
    RouterConfig rc = fx.routerConfig(RoutingPolicy::RoundRobin,
                                      false);
    rc.server.admission.policy = "tinylfu";
    const RoutingReport lfu =
        Router(fx.model, fx.cluster, rc).route(fx.trace);
    EXPECT_EQ(lfu.queries, fx.trace.queries.size());
    EXPECT_GT(lfu.cacheHits, 0u);

    // CDF-gated admission with the fixture's own profiles: every
    // node's foreign tables live wholly in UVM there, so their
    // profiled-hot rows are cacheable and the gate admits them.
    rc.server.admission.policy = "cdf-gated";
    rc.server.admission.cdfs = collectCdfs(fx.profiles);
    const RoutingReport gated =
        Router(fx.model, fx.cluster, rc).route(fx.trace);
    EXPECT_EQ(gated.queries, fx.trace.queries.size());
    EXPECT_GT(gated.cacheHits, 0u);
}

// ------------------------------------------------------- traces

/** Bytes of a trace in the Router's binary trace format. */
std::string
traceBytes(const RoutedTrace &trace)
{
    std::ostringstream out(std::ios::binary);
    writeRoutedTrace(out, trace);
    return out.str();
}

/** A 4-feature dataset whose hot rows churn 10% a month, standing
 *  at month 3, plus a load of ~4-sample queries. */
struct DriftingTraceSetup
{
    static ModelSpec fullCardinalityModel()
    {
        ModelSpec model = makeTinyModel(4, 3000, 13);
        for (auto &f : model.features)
            f.cardinality = f.hashSize;
        return model;
    }

    DriftingTraceSetup() : data(fullCardinalityModel(), 13)
    {
        DriftModel churn;
        churn.hotChurnPerMonth = 0.1;
        data.setDrift(churn);
        data.setMonth(3);
        load.meanQuerySamples = 4.0;
        load.seed = 13;
    }

    SyntheticDataset data;
    LoadConfig load;
};

/**
 * The trace builders' serial reference: arrivals from one
 * LoadGenerator, then each query's lookups feature by feature, with
 * the dataset set to month_of(i) before query i is drawn.
 */
template <class MonthOf>
RoutedTrace
serialTrace(SyntheticDataset &data, const LoadConfig &load,
            std::uint64_t num_queries, MonthOf month_of)
{
    const std::uint32_t saved_month = data.month();
    LoadGenerator generator(load);
    RoutedTrace trace;
    for (std::uint64_t i = 0; i < num_queries; ++i) {
        data.setMonth(month_of(i));
        RoutedQuery rq;
        rq.query = generator.next();
        rq.query.id = i;
        for (std::uint32_t j = 0; j < data.spec().numFeatures(); ++j) {
            const FeatureBatch fb = data.featureBatch(
                j, rq.query.samples, rq.query.batchIndex);
            rq.totalLookups += fb.indices.size();
            rq.lookups.push_back(fb.indices);
            rq.sampleOffsets.push_back(fb.offsets);
        }
        trace.queries.push_back(std::move(rq));
    }
    data.setMonth(saved_month);
    return trace;
}

TEST(RoutedTrace, OneMonthDriftingTraceEqualsTheStaticTrace)
{
    DriftingTraceSetup fx;
    SyntheticDataset &data = fx.data;

    const std::string fixed =
        traceBytes(materializeRoutedTrace(data, fx.load, 400));
    DriftTraceSchedule schedule;
    schedule.startMonth = data.month();
    schedule.months = 1;
    EXPECT_EQ(traceBytes(materializeDriftingRoutedTrace(
                  data, fx.load, 400, schedule)),
              fixed);
    EXPECT_EQ(data.month(), 3u);

    // The month really moves the lookups, so the equality above
    // is not vacuous; the dataset's month is restored either way.
    schedule.startMonth = 0;
    EXPECT_NE(traceBytes(materializeDriftingRoutedTrace(
                  data, fx.load, 400, schedule)),
              fixed);
    EXPECT_EQ(data.month(), 3u);
}

TEST(RoutedTrace, ParallelBuildersMatchASerialReference)
{
    DriftingTraceSetup fx;
    SyntheticDataset &data = fx.data;
    // 1000 queries are three 256-query chunks plus 232, and three
    // months over them change month at queries 334 and 667, inside
    // the second and third chunks.
    constexpr std::uint64_t kQueries = 1000;

    const auto month_three = [](std::uint64_t) { return 3u; };
    EXPECT_EQ(traceBytes(materializeRoutedTrace(data, fx.load,
                                                kQueries)),
              traceBytes(serialTrace(data, fx.load, kQueries,
                                     month_three)));

    DriftTraceSchedule schedule;
    schedule.startMonth = 1;
    schedule.months = 3;
    const RoutedTrace drifting = materializeDriftingRoutedTrace(
        data, fx.load, kQueries, schedule);
    EXPECT_EQ(data.month(), 3u);
    EXPECT_EQ(traceBytes(drifting),
              traceBytes(serialTrace(
                  data, fx.load, kQueries, [&](std::uint64_t i) {
                      return schedule.startMonth +
                          static_cast<std::uint32_t>(
                              i * schedule.months / kQueries);
                  })));
    EXPECT_EQ(data.month(), 3u);
}

TEST(RoutedTrace, LookupVectorsHoldTheirDataSize)
{
    // A trace is held for as long as it is served, so its vectors
    // keep no slack beyond their rows (the draw reserves for a
    // generous pooling guess).
    DriftingTraceSetup fx;
    for (const std::uint32_t months : {0u, 3u}) {
        SCOPED_TRACE("months " + std::to_string(months));
        DriftTraceSchedule schedule;
        schedule.months = months ? months : 1;
        const RoutedTrace trace = months
            ? materializeDriftingRoutedTrace(fx.data, fx.load, 600,
                                             schedule)
            : materializeRoutedTrace(fx.data, fx.load, 600);
        std::uint64_t lookups = 0;
        for (const RoutedQuery &rq : trace.queries) {
            for (std::size_t j = 0; j < rq.lookups.size(); ++j) {
                EXPECT_EQ(rq.lookups[j].capacity(), rq.lookups[j].size())
                    << "query " << rq.query.id << " feature " << j;
                EXPECT_EQ(rq.sampleOffsets[j].capacity(),
                          rq.sampleOffsets[j].size())
                    << "query " << rq.query.id << " feature " << j;
                lookups += rq.lookups[j].size();
            }
        }
        EXPECT_GT(lookups, 0u);
    }
}

// ----------------------------------------- hedge latency window

TEST(LatencyWindow, FillPhaseAppendsInOrder)
{
    LatencyWindow w(4);
    w.push(1.0);
    w.push(2.0);
    w.push(3.0);
    EXPECT_EQ(w.pushed(), 3u);
    EXPECT_EQ(w.samples(), (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_DOUBLE_EQ(w.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(w.quantile(1.0), 3.0);
}

TEST(LatencyWindow, OverwritesTheOldestSampleAfterWrap)
{
    // Regression for the sliding-window off-by-one: the fill phase
    // stores completion c at index c-1, but replacement used to
    // write window[completed % size], so the oldest sample survived
    // one extra lap while a one-newer sample was evicted. Sample 5
    // must overwrite sample 1 (slot 0) and sample 6 must overwrite
    // sample 2 (slot 1); the buggy indexing produced {1,5,6,4}.
    LatencyWindow w(4);
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
        w.push(x);
    EXPECT_EQ(w.pushed(), 6u);
    EXPECT_EQ(w.samples(), (std::vector<double>{5.0, 6.0, 3.0, 4.0}));
    // The stale minimum is gone: the window's floor is sample 3.
    EXPECT_DOUBLE_EQ(w.quantile(0.0), 3.0);

    // A full extra lap replaces everything.
    for (double x : {7.0, 8.0, 9.0, 10.0})
        w.push(x);
    EXPECT_EQ(w.samples(),
              (std::vector<double>{9.0, 10.0, 7.0, 8.0}));
}

TEST(LatencyWindow, RejectsEmptyCapacity)
{
    EXPECT_DEATH(LatencyWindow(0), "empty");
}

TEST(LatencyWindow, ResetReturnsToFreshState)
{
    // Epoch windowing (replan/live.hh): reset at each epoch
    // boundary so percentiles cover one epoch's completions only.
    LatencyWindow w(4);
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        w.push(x);
    w.reset();
    EXPECT_EQ(w.pushed(), 0u);
    EXPECT_TRUE(w.samples().empty());

    // Post-reset samples never mix with pre-reset laps.
    w.push(7.0);
    w.push(9.0);
    EXPECT_EQ(w.pushed(), 2u);
    EXPECT_EQ(w.samples(), (std::vector<double>{7.0, 9.0}));
    EXPECT_DOUBLE_EQ(w.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(w.quantile(1.0), 9.0);
}

TEST(Hedging, RefreshIntervalIsValidated)
{
    const RoutingFixture &fx = fixture();
    RouterConfig rc = fx.routerConfig(RoutingPolicy::RoundRobin,
                                      true);
    rc.hedge.refreshInterval = 0;
    EXPECT_DEATH(Router(fx.model, fx.cluster, rc),
                 "refresh interval");
}

TEST(Hedging, RefreshIntervalIsSweepable)
{
    // A per-completion refresh (interval 1) and the default lazy
    // refresh are both valid configurations and serve every query.
    const RoutingFixture &fx = fixture();
    RouterConfig rc = fx.routerConfig(RoutingPolicy::RoundRobin,
                                      true);
    rc.hedge.refreshInterval = 1;
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.trace);
    EXPECT_EQ(r.queries, fx.trace.queries.size());
}

// ---------------------------------------------------- headline

TEST(Routing, LocalityPlusHedgingHoldsRoundRobinTail)
{
    const RoutingFixture &fx = fixture();
    const RoutingReport rr =
        fx.route(RoutingPolicy::RoundRobin, false);
    const RoutingReport best =
        fx.route(RoutingPolicy::LocalityAware, true);
    // The acceptance headline, enforced: at equal offered load on
    // the same seeded trace, locality-aware routing with hedging
    // meets or beats plain round-robin's p99.
    EXPECT_LE(best.p99Latency, rr.p99Latency);
    EXPECT_LE(best.slaViolationRate, rr.slaViolationRate);
}

} // namespace
