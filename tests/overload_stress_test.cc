/**
 * @file
 * Stress/soak tier: long traces, deep overload, and many aging
 * cycles — the regimes a few-thousand-query unit test never enters.
 *
 * The centerpiece is a >= 200k-query bursty trace at 3x the
 * cluster's measured saturation rate. At that load an uncontrolled
 * router's queues grow without bound (the admit-all run proves the
 * regime is real); the assertions are that queue-threshold and
 * adaptive admission actually hold their respective bounds over the
 * whole soak, not just at the start. The same soak pushes two
 * previously single-epoch code paths through hundreds of cycles:
 * the hedge LatencyWindow wraps its ring ~400 times (PR 4's
 * off-by-one regression sat exactly on the wrap path), and the
 * TinyLFU sketch ages — halves its counters and clears its
 * doorkeeper — hundreds of times (PR 4's tests never crossed one
 * aging epoch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>

#include "recshard/base/random.hh"
#include "recshard/base/stats.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/router.hh"
#include "recshard/serving/cache_admission.hh"

namespace {

using namespace recshard;

constexpr std::uint64_t kSoakQueries = 200000;

/**
 * One shared soak fixture: a deliberately small model (the stress
 * is the query *count*, not per-query weight) and a 2-node cluster
 * with its saturation rate measured up front.
 */
struct SoakFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    double saturationQps = 0.0;
    double meanServiceSeconds = 0.0;
    RoutedTrace soak; //!< bursty, 3x saturation, kSoakQueries long

    SoakFixture()
        : model(sized(makeTinyModel(6, 5000, 11))),
          data(model, 11 * 2654435761ULL + 1),
          system(SystemSpec::paper(1, 1.0))
    {
        system.hbm.capacityBytes = static_cast<std::uint64_t>(
            0.25 * static_cast<double>(model.totalBytes()));
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 10000, 2048);

        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles, system, cp);

        LoadConfig probe;
        probe.qps = 100000.0;
        probe.meanQuerySamples = 2.0;
        probe.seed = 0xBADCAFEULL;
        saturationQps = estimateSaturationQps(
            model, cluster, baseConfig(),
            materializeRoutedTrace(data, probe, 20000));
        meanServiceSeconds = 2.0 / saturationQps;

        // Millisecond flash crowds, dozens of ON/OFF cycles across
        // the soak.
        LoadConfig load = probe;
        load.process = ArrivalProcess::Bursty;
        load.qps = 3.0 * saturationQps;
        load.meanOnSeconds = 0.001;
        load.meanOffSeconds = 0.003;
        soak = materializeRoutedTrace(data, load, kSoakQueries);
    }

    static ModelSpec
    sized(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 32;
        return spec;
    }

    RouterConfig
    baseConfig() const
    {
        RouterConfig rc;
        rc.policy = RoutingPolicy::LeastOutstanding;
        rc.server.cacheRows = 256;
        rc.server.batchOverheadSeconds = 2e-6;
        rc.slaSeconds = 0.001;
        return rc;
    }
};

const SoakFixture &
fixture()
{
    static const SoakFixture fx;
    return fx;
}

void
expectConserved(const RoutingReport &r, std::uint64_t offered)
{
    EXPECT_EQ(r.queries, offered);
    EXPECT_EQ(r.fullQueries + r.degradedQueries + r.shedQueries,
              r.queries);
    EXPECT_EQ(r.servedQueries, r.fullQueries + r.degradedQueries);
    const std::uint64_t dispatched = std::accumulate(
        r.nodeQueries.begin(), r.nodeQueries.end(),
        std::uint64_t{0});
    EXPECT_EQ(dispatched,
              r.servedQueries + r.hedgedQueries - r.canceledCopies);
}

TEST(OverloadSoak, AdmitAllQueuesBlowUpAtThreeTimesSaturation)
{
    // Establish the regime: without admission control this soak
    // really is queue collapse, so the controlled runs below are
    // holding back something genuine.
    const SoakFixture &fx = fixture();
    const RoutingReport r =
        Router(fx.model, fx.cluster, fx.baseConfig())
            .route(fx.soak);
    expectConserved(r, kSoakQueries);
    EXPECT_EQ(r.servedQueries, kSoakQueries);
    // Thousands of queries deep on a node whose SLA-sized queue
    // would be tens — and almost nothing inside the SLA.
    EXPECT_GT(r.maxNodeOutstanding, 2000u);
    EXPECT_GT(r.slaViolationRate, 0.5);
}

TEST(OverloadSoak, QueueThresholdHoldsItsBoundForTheWholeSoak)
{
    const SoakFixture &fx = fixture();
    RouterConfig rc = fx.baseConfig();
    rc.overload.admission.policy = "queue-threshold";
    rc.overload.admission.maxOutstanding = 32;
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.soak);
    expectConserved(r, kSoakQueries);
    // The bound holds at the peak, not just on average: an
    // admission decision sees outstanding < 32, so no node ever
    // exceeds 32 outstanding at any instant of the soak.
    EXPECT_LE(r.maxNodeOutstanding, 32u);
    EXPECT_GT(r.shedQueries, 0u);
    // Served queries stayed fast: the queue cap is the p99 cap.
    EXPECT_LE(r.p99Latency, rc.slaSeconds);
}

TEST(OverloadSoak, AdaptiveKeepsPredictedDelayNearTheTarget)
{
    const SoakFixture &fx = fixture();
    RouterConfig rc = fx.baseConfig();
    rc.overload.admission.policy = "adaptive";
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.soak);
    expectConserved(r, kSoakQueries);
    // The controller defends target = sla/2 of *predicted* queue
    // delay, so outstanding hovers near target / service. Allow 2x
    // for EWMA lag across burst edges — still orders of magnitude
    // below the uncontrolled blowup.
    const double target = rc.slaSeconds / 2.0;
    const auto implied = static_cast<std::uint64_t>(
        target / fx.meanServiceSeconds);
    EXPECT_LE(r.maxNodeOutstanding, 2 * implied + 4);
    EXPECT_GT(r.shedQueries, 0u);
    EXPECT_LE(r.p99Latency, 2.0 * rc.slaSeconds);
}

TEST(OverloadSoak, HedgedControlledSoakWrapsTheLatencyWindow)
{
    // In-path LatencyWindow soak: hedging over ~200k completions
    // wraps the 512-sample ring hundreds of times while admission
    // sheds around it. Hedge bookkeeping must still balance, and
    // tied requests must still waste nothing.
    const SoakFixture &fx = fixture();
    RouterConfig rc = fx.baseConfig();
    rc.overload.admission.policy = "queue-threshold";
    rc.overload.admission.maxOutstanding = 32;
    rc.hedge.enabled = true;
    rc.hedge.quantile = 0.9;
    rc.hedge.minSamples = 64;
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.soak);
    expectConserved(r, kSoakQueries);
    EXPECT_LE(r.hedgedQueries, r.servedQueries);
    EXPECT_EQ(r.canceledCopies, r.hedgedQueries);
    EXPECT_DOUBLE_EQ(r.wastedSeconds, 0.0);
    // Hedge copies enqueue past admission, so the strict bound
    // loosens by the copies in flight — but it must not drift over
    // the soak.
    EXPECT_LE(r.maxNodeOutstanding, 64u);
}

TEST(OverloadSoak, LatencyWindowQuantilesExactAcrossManyWraps)
{
    // Direct ring-buffer soak: 200k pushes through a 512-slot
    // window is ~390 full wraps. At every checkpoint the window's
    // quantiles must equal a brute-force reference over exactly
    // the last 512 samples — any off-by-one in the wrap indexing
    // (PR 4's bug class) desynchronizes the two within one lap.
    constexpr std::uint64_t kCapacity = 512;
    LatencyWindow window(kCapacity);
    std::deque<double> reference;
    Rng rng(0x51D1D0ULL);
    for (std::uint64_t i = 0; i < kSoakQueries; ++i) {
        // Drifting latency scale, so stale survivors would change
        // the quantiles measurably.
        const double scale =
            1.0 + static_cast<double>(i) / 20000.0;
        const double sample = scale * rng.uniform(0.5, 1.5);
        window.push(sample);
        reference.push_back(sample);
        if (reference.size() > kCapacity)
            reference.pop_front();
        if (i % 9973 == 0 || i + 1 == kSoakQueries) {
            const std::vector<double> ref(reference.begin(),
                                          reference.end());
            for (const double q : {0.0, 0.5, 0.95, 1.0}) {
                // Exact: selection picks the same order statistics
                // a full sort does, so the bits must match.
                ASSERT_EQ(window.quantile(q), percentile(ref, q))
                    << "push " << i << " quantile " << q;
            }
        }
    }
    EXPECT_EQ(window.pushed(), kSoakQueries);
    EXPECT_EQ(window.samples().size(), kCapacity);

    // Tiny and odd-sized windows full of ties: the bracketing order
    // statistics are often equal values at different positions.
    Rng dup(0xD0B1EULL);
    for (const std::uint64_t cap : {1, 2, 513}) {
        LatencyWindow small(cap);
        std::deque<double> ref;
        for (std::uint64_t i = 0; i < 4 * cap + 3; ++i) {
            const double sample =
                0.001 * static_cast<double>(dup.uniformInt(1, 4));
            small.push(sample);
            ref.push_back(sample);
            if (ref.size() > cap)
                ref.pop_front();
            const std::vector<double> xs(ref.begin(), ref.end());
            for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
                ASSERT_EQ(small.quantile(q), percentile(xs, q))
                    << "capacity " << cap << " push " << i
                    << " quantile " << q;
        }
    }
}

TEST(OverloadSoak, TinyLfuAgingStaysBoundedAcrossManyEpochs)
{
    // PR 4's TinyLFU tests never crossed one aging epoch. Drive
    // ~500 halving cycles and check the aging contract: estimates
    // stay bounded by the 4-bit ceiling (+1 doorkeeper), and a
    // once-hot key's estimate decays once its traffic stops, so
    // the sketch tracks the recent past instead of all time.
    CacheAdmissionConfig config;
    config.policy = "tinylfu";
    config.tinylfu.agingSampleSize = 1024;
    const auto policy = makeCacheAdmission(config, 64);

    Rng rng(0x7F4A7C15ULL);
    const std::uint64_t epochs = 500;
    std::uint64_t hot_base = 0;
    for (std::uint64_t e = 0; e < epochs; ++e) {
        // Shift the hot set every 50 epochs; inside an epoch, 90%
        // of traffic hits 8 hot keys, the rest a cold tail.
        if (e % 50 == 0)
            hot_base += 1000;
        for (std::uint64_t i = 0; i < 1024; ++i) {
            const std::uint64_t key = rng.bernoulli(0.9)
                ? hot_base + static_cast<std::uint64_t>(
                                 rng.uniformInt(0, 7))
                : 1000000 + static_cast<std::uint64_t>(
                                rng.uniformInt(0, 99999));
            policy->onAccess(key);
            ASSERT_LE(policy->frequency(key), 16u)
                << "epoch " << e;
        }
        // A hot key must beat a cold victim whenever the sketch
        // has seen this epoch's traffic.
        EXPECT_TRUE(policy->admit(hot_base, true, 999999999));
    }
    // The previous hot set went quiet two generations ago; aging
    // must have decayed it below the ceiling it once pinned.
    EXPECT_LT(policy->frequency(hot_base - 2000), 4u);
    EXPECT_GT(policy->frequency(hot_base), 2u);
}

TEST(OverloadSoak, TinyLfuServesTheControlledSoakInPath)
{
    // End-to-end: the soak's ~1.2M cache touches with a small
    // aging sample put the in-path sketch through hundreds of
    // halvings inside ShardServer — PR 4's integration never left
    // epoch one.
    const SoakFixture &fx = fixture();
    RouterConfig rc = fx.baseConfig();
    rc.overload.admission.policy = "queue-threshold";
    rc.overload.admission.maxOutstanding = 32;
    rc.server.admission.policy = "tinylfu";
    rc.server.admission.tinylfu.agingSampleSize = 2048;
    const RoutingReport r =
        Router(fx.model, fx.cluster, rc).route(fx.soak);
    expectConserved(r, kSoakQueries);
    EXPECT_LE(r.maxNodeOutstanding, 32u);
    EXPECT_GT(r.cacheHits, 0u);
    EXPECT_LE(r.p99Latency, rc.slaSeconds);
}

} // namespace
