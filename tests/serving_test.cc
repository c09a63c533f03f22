/**
 * @file
 * Tests for the online serving subsystem: load generation, dynamic
 * batching, LRU hot-row caching, and SLA-aware plan evaluation.
 * Everything is seeded, and the simulator accounts latency in
 * virtual time, so every expectation here is deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/sharding/recshard_solver.hh"

namespace {

using namespace recshard;

// -------------------------------------------------------- arrivals

TEST(LoadGenerator, PoissonArrivalCountMatchesRate)
{
    LoadConfig cfg;
    cfg.process = ArrivalProcess::Poisson;
    cfg.qps = 2000.0;
    cfg.seed = 11;
    LoadGenerator gen(cfg);
    const double window = 2.0;
    const auto queries = gen.generateFor(window);
    const double expected = cfg.qps * window;
    EXPECT_NEAR(static_cast<double>(queries.size()), expected,
                6.0 * std::sqrt(expected));
    for (std::size_t i = 1; i < queries.size(); ++i)
        EXPECT_GE(queries[i].arrival, queries[i - 1].arrival);
}

TEST(LoadGenerator, QuerySizesStayInRange)
{
    LoadConfig cfg;
    cfg.meanQuerySamples = 6.0;
    cfg.querySizeSigma = 1.0;
    cfg.maxQuerySamples = 32;
    cfg.seed = 3;
    LoadGenerator gen(cfg);
    double mean = 0.0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const Query q = gen.next();
        ASSERT_GE(q.samples, 1u);
        ASSERT_LE(q.samples, 32u);
        mean += q.samples;
    }
    mean /= draws;
    EXPECT_NEAR(mean, 6.0, 1.0);
}

TEST(LoadGenerator, BurstyArrivalsAreOverdispersed)
{
    // Count arrivals in fixed bins: a Poisson process has variance
    // == mean (dispersion 1); an on/off process is far burstier.
    auto dispersion = [](ArrivalProcess process) {
        LoadConfig cfg;
        cfg.process = process;
        cfg.qps = 2000.0;
        cfg.meanOnSeconds = 0.02;
        cfg.meanOffSeconds = 0.08;
        cfg.seed = 17;
        LoadGenerator gen(cfg);
        const double window = 20.0, bin = 0.05;
        std::vector<double> counts(
            static_cast<std::size_t>(window / bin), 0.0);
        for (const Query &q : gen.generateFor(window))
            counts[static_cast<std::size_t>(q.arrival / bin)] += 1;
        double mean = 0.0, var = 0.0;
        for (const double c : counts)
            mean += c;
        mean /= static_cast<double>(counts.size());
        for (const double c : counts)
            var += (c - mean) * (c - mean);
        var /= static_cast<double>(counts.size() - 1);
        return var / mean;
    };
    EXPECT_LT(dispersion(ArrivalProcess::Poisson), 1.5);
    EXPECT_GT(dispersion(ArrivalProcess::Bursty), 3.0);
}

TEST(LoadGenerator, BurstyPreservesMeanRate)
{
    LoadConfig cfg;
    cfg.process = ArrivalProcess::Bursty;
    cfg.qps = 1000.0;
    cfg.meanOnSeconds = 0.05;
    cfg.meanOffSeconds = 0.15;
    cfg.seed = 5;
    LoadGenerator gen(cfg);
    const double window = 50.0;
    const auto queries = gen.generateFor(window);
    // Phase randomness widens the spread well beyond Poisson.
    EXPECT_NEAR(static_cast<double>(queries.size()),
                cfg.qps * window, 0.15 * cfg.qps * window);
}

// -------------------------------------------------------- batching

TEST(BatchScheduler, DeadlineAndSizeLimitsHonored)
{
    BatchingConfig cfg;
    cfg.maxBatchSamples = 48;
    cfg.maxBatchQueries = 8;
    cfg.maxWaitSeconds = 0.003;

    LoadConfig load;
    load.qps = 900.0;
    load.meanQuerySamples = 4.0;
    load.maxQuerySamples = 16;
    load.seed = 23;
    LoadGenerator gen(load);

    BatchScheduler scheduler(cfg);
    const auto queries = gen.generate(5000);
    for (const Query &q : queries)
        scheduler.admit(q);
    scheduler.flush();

    std::uint64_t total_queries = 0;
    for (const MicroBatch &batch : scheduler.batches()) {
        ASSERT_FALSE(batch.queries.empty());
        total_queries += batch.queries.size();
        // Deadline: the batch seals at most maxWait after its
        // oldest admitted query.
        EXPECT_LE(batch.closeTime - batch.oldestArrival(),
                  cfg.maxWaitSeconds + 1e-12);
        // The batch cannot seal before its newest member arrives.
        EXPECT_GE(batch.closeTime + 1e-12,
                  batch.queries.back().arrival);
        EXPECT_LE(batch.queries.size(), cfg.maxBatchQueries);
        // The size trigger fires on admission, so a batch may
        // overshoot the sample target by at most one query.
        EXPECT_LT(batch.totalSamples(),
                  cfg.maxBatchSamples + load.maxQuerySamples);
    }
    EXPECT_EQ(total_queries, queries.size());
    // At 900 QPS with a 3 ms deadline most batches hold several
    // queries: batching must actually coalesce.
    EXPECT_LT(scheduler.batches().size(), queries.size());
}

TEST(BatchScheduler, LightLoadDegradesToSingletons)
{
    BatchingConfig cfg;
    cfg.maxWaitSeconds = 0.001;
    BatchScheduler scheduler(cfg);
    // Arrivals 10 ms apart: every deadline fires before the next
    // arrival, so every batch holds exactly one query.
    for (int i = 0; i < 10; ++i) {
        Query q;
        q.id = static_cast<std::uint64_t>(i);
        q.arrival = 0.010 * i;
        q.samples = 2;
        scheduler.admit(q);
    }
    scheduler.flush();
    ASSERT_EQ(scheduler.batches().size(), 10u);
    for (const MicroBatch &batch : scheduler.batches()) {
        EXPECT_EQ(batch.queries.size(), 1u);
        EXPECT_DOUBLE_EQ(batch.closeTime,
                         batch.oldestArrival() + 0.001);
    }
}

// ------------------------------------------------------------- LRU

TEST(LruRowCache, HitsMissesAndEviction)
{
    LruRowCache cache(2);
    EXPECT_FALSE(cache.touch(1)); // miss, insert
    EXPECT_FALSE(cache.touch(2)); // miss, insert
    EXPECT_TRUE(cache.touch(1));  // hit, 1 becomes MRU
    EXPECT_FALSE(cache.touch(3)); // miss, evicts 2
    EXPECT_FALSE(cache.touch(2)); // miss (evicted), evicts 1? no: 1
                                  // was MRU, 3 older -> evicts 3? no:
                                  // order is 3,1 -> evicts 1
    EXPECT_TRUE(cache.touch(2));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_NEAR(cache.hitRate(), 2.0 / 6.0, 1e-12);
}

TEST(LruRowCache, DisabledCacheNeverHits)
{
    LruRowCache cache(0);
    EXPECT_FALSE(cache.enabled());
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(cache.touch(7));
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------- served/shed metrics split

TEST(ServingMetrics, PercentilesCoverServedQueriesOnly)
{
    // Regression pin for the served/shed split: latency statistics
    // must be computed over the *served* population. Folding shed
    // (rejected/canceled) queries into the denominator — as the
    // pre-split accounting did by reporting violations over
    // r.queries — understates the violation rate exactly when
    // admission control is active.
    ServingMetrics m;
    m.recordQuery(0.000, 0.001, 4); // 1 ms
    m.recordQuery(0.000, 0.002, 4); // 2 ms
    m.recordQuery(0.000, 0.003, 4); // 3 ms
    m.recordQuery(0.000, 0.004, 4); // 4 ms
    for (int i = 0; i < 6; ++i)
        m.recordShed(0.001 * i, 2);

    const ServingReport r = m.report("pin", 0.0025, 1, 0.0);
    EXPECT_EQ(r.queries, 10u); // offered = served + shed
    EXPECT_EQ(r.servedQueries, 4u);
    EXPECT_EQ(r.shedQueries, 6u);
    EXPECT_DOUBLE_EQ(r.shedRate, 0.6);

    // Percentiles over the four served latencies only.
    EXPECT_DOUBLE_EQ(r.p50Latency, 0.0025);
    EXPECT_DOUBLE_EQ(r.maxLatency, 0.004);
    EXPECT_DOUBLE_EQ(r.meanLatency, 0.0025);
    // Two of the four *served* queries violate the 2.5 ms SLA: the
    // rate is 0.5, not the 0.2 a mixed-population denominator
    // would report.
    EXPECT_DOUBLE_EQ(r.slaViolationRate, 0.5);
    EXPECT_EQ(r.goodQueries, 2u);

    // The offered window spans the shed arrivals too.
    EXPECT_DOUBLE_EQ(r.durationSeconds, 0.005);
    EXPECT_DOUBLE_EQ(r.qps, 4.0 / 0.005);
    EXPECT_DOUBLE_EQ(r.goodput, 2.0 / 0.005);

    // Quality ledger: shed queries serve none of their candidates.
    EXPECT_EQ(r.offeredCandidates, 28u);
    EXPECT_EQ(r.servedCandidates, 16u);
    EXPECT_DOUBLE_EQ(r.candidateFraction, 16.0 / 28.0);
}

TEST(ServingMetrics, DegradedQueriesCountServedCandidates)
{
    ServingMetrics m;
    m.recordQuery(0.0, 0.001, 8, 2); // degraded: 2 of 8 served
    m.recordQuery(0.0, 0.002, 8);    // full fidelity
    const ServingReport r = m.report("degraded", 0.010, 1, 0.0);
    EXPECT_EQ(r.offeredCandidates, 16u);
    EXPECT_EQ(r.servedCandidates, 10u);
    EXPECT_DOUBLE_EQ(r.candidateFraction, 10.0 / 16.0);
    // Serving more candidates than offered is a bookkeeping bug.
    EXPECT_DEATH(m.recordQuery(0.0, 0.001, 4, 5), "candidates");
}

TEST(ServingMetrics, ShedOnlyTraceHasNoLatencyPopulation)
{
    ServingMetrics m;
    m.recordShed(0.000);
    m.recordShed(0.002);
    m.recordShed(0.010);
    const ServingReport r = m.report("all-shed", 0.001, 1, 0.0);
    EXPECT_EQ(r.queries, 3u);
    EXPECT_EQ(r.servedQueries, 0u);
    EXPECT_DOUBLE_EQ(r.shedRate, 1.0);
    // No served population: every latency statistic stays at its
    // well-defined zero instead of a garbage percentile.
    EXPECT_DOUBLE_EQ(r.p50Latency, 0.0);
    EXPECT_DOUBLE_EQ(r.p99Latency, 0.0);
    EXPECT_DOUBLE_EQ(r.maxLatency, 0.0);
    EXPECT_DOUBLE_EQ(r.slaViolationRate, 0.0);
    EXPECT_DOUBLE_EQ(r.qps, 0.0);
    // The offered window is still real.
    EXPECT_DOUBLE_EQ(r.durationSeconds, 0.010);
    EXPECT_EQ(r.maxQueueDepth, 0u);
}

TEST(ServingMetrics, ShedQueriesNeverOccupyTheQueue)
{
    ServingMetrics m;
    m.recordQuery(0.000, 0.010); // in flight the whole window
    m.recordShed(0.002);
    m.recordShed(0.004);
    const ServingReport r = m.report("depth", 0.1, 1, 0.0);
    // Sheds widen the window but never add queue depth.
    EXPECT_EQ(r.maxQueueDepth, 1u);
    EXPECT_DOUBLE_EQ(r.meanQueueDepth, 1.0);
}

TEST(ShardedServingMetrics, ConcurrentRecordingConservesEveryQuery)
{
    // The regression the sharded collector exists for: one plain
    // ServingMetrics recorded from several threads loses updates
    // (racing vector push_backs and counter increments — UB, and
    // dropped queries in practice). Per-thread shards merged after
    // join conserve every record. Recording into a single shared
    // ServingMetrics here instead makes this test fail (when it
    // doesn't corrupt the heap outright) and trips the TSan job.
    constexpr std::uint32_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    ShardedServingMetrics sharded(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&sharded, t] {
            ServingMetrics &m = sharded.shard(t);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const double at = static_cast<double>(i) * 1e-6;
                if (i % 5 == 0)
                    m.recordShed(at, 4);
                else
                    m.recordQuery(at, at + 1e-4, 4, 2);
                m.recordTraffic(3, 2, 1);
            }
            m.recordBatch(kPerThread);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const ServingMetrics all = sharded.merged();
    const ServingReport r = all.report("sharded", 0.001, 1, 0.0);
    const std::uint64_t total = kThreads * kPerThread;
    const std::uint64_t shed = kThreads * (kPerThread / 5);
    EXPECT_EQ(r.queries, total);
    EXPECT_EQ(r.shedQueries, shed);
    EXPECT_EQ(r.servedQueries, total - shed);
    EXPECT_EQ(r.offeredCandidates, 4 * total);
    EXPECT_EQ(r.servedCandidates, 2 * (total - shed));
    EXPECT_EQ(r.hbmAccesses, 3 * total);
    EXPECT_EQ(r.uvmAccesses, 2 * total);
    EXPECT_EQ(r.cacheHits, total);
    EXPECT_EQ(r.batches, kThreads);
}

TEST(ShardedServingMetrics, MergeMatchesSequentialRecording)
{
    // Splitting a record stream across shards and merging must
    // produce the same report as recording it into one collector —
    // the property the real-time backend's ledger equality needs.
    ServingMetrics sequential;
    ShardedServingMetrics sharded(3);
    for (std::uint32_t i = 0; i < 300; ++i) {
        const double at = static_cast<double>(i) * 1e-5;
        ServingMetrics &s = sharded.shard(i % 3);
        if (i % 7 == 0) {
            sequential.recordShed(at, 5);
            s.recordShed(at, 5);
        } else {
            sequential.recordQuery(at, at + 2e-4, 5, 3);
            s.recordQuery(at, at + 2e-4, 5, 3);
        }
        sequential.recordTraffic(2, 1, 1);
        s.recordTraffic(2, 1, 1);
    }
    const ServingReport a =
        sequential.report("seq", 0.001, 1, 0.0);
    const ServingReport b =
        sharded.merged().report("seq", 0.001, 1, 0.0);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.servedQueries, b.servedQueries);
    EXPECT_EQ(a.shedQueries, b.shedQueries);
    EXPECT_EQ(a.offeredCandidates, b.offeredCandidates);
    EXPECT_EQ(a.servedCandidates, b.servedCandidates);
    EXPECT_EQ(a.hbmAccesses, b.hbmAccesses);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
    EXPECT_DOUBLE_EQ(a.durationSeconds, b.durationSeconds);
    EXPECT_DOUBLE_EQ(a.meanQueueDepth, b.meanQueueDepth);
}

// ------------------------------------------- end-to-end evaluation

/** Shared capacity-constrained fixture: HBM holds ~1/5 of the
 *  model, the regime where plan quality decides tail latency. */
struct ServingFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;

    ServingFixture()
        : model(embiggen(makeTinyModel(12, 20000, 7))),
          data(model, 2024), system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = model.totalBytes() / 5;
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 30000, 4096);
    }

    /** Widen rows so tier traffic, not fixed overhead, dominates. */
    static ModelSpec
    embiggen(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 128;
        return spec;
    }

    ShardingPlan
    recshard() const
    {
        return recShardPlan(model, profiles, system);
    }

    ShardingPlan
    sizeGreedy() const
    {
        return greedyShard(BaselineCost::Size, model, profiles,
                           system);
    }

    std::vector<TierResolver>
    resolve(const ShardingPlan &plan) const
    {
        return ExecutionEngine::buildResolvers(model, plan,
                                               profiles);
    }

    static ServingConfig
    servingConfig()
    {
        ServingConfig cfg;
        cfg.load.qps = 4000.0;
        cfg.load.meanQuerySamples = 4.0;
        cfg.load.seed = 99;
        cfg.batching.maxBatchQueries = 16;
        cfg.batching.maxBatchSamples = 64;
        cfg.batching.maxWaitSeconds = 0.002;
        cfg.server.batchOverheadSeconds = 5e-6;
        cfg.numQueries = 3000;
        cfg.slaSeconds = 0.010;
        return cfg;
    }
};

TEST(Serving, LatencyPercentilesAreMonotone)
{
    const ServingFixture fx;
    const ShardingPlan plan = fx.recshard();
    const ServingReport report = serveTraffic(
        fx.data, plan, fx.resolve(plan), fx.system,
        ServingFixture::servingConfig());

    EXPECT_EQ(report.queries, 3000u);
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GT(report.p50Latency, 0.0);
    EXPECT_LE(report.p50Latency, report.p95Latency);
    EXPECT_LE(report.p95Latency, report.p99Latency);
    EXPECT_LE(report.p99Latency, report.maxLatency);
    EXPECT_GE(report.meanQueueDepth, 0.0);
    EXPECT_GT(report.serverUtilization, 0.0);
}

TEST(Serving, DeterministicAcrossRuns)
{
    const ServingFixture fx;
    const ShardingPlan plan = fx.recshard();
    const auto resolvers = fx.resolve(plan);
    const auto cfg = ServingFixture::servingConfig();
    const ServingReport a =
        serveTraffic(fx.data, plan, resolvers, fx.system, cfg);
    const ServingReport b =
        serveTraffic(fx.data, plan, resolvers, fx.system, cfg);
    // Virtual-time accounting: a rerun reproduces every number.
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_DOUBLE_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
}

TEST(Serving, CacheAbsorbsUvmTrafficOnZipfianLoad)
{
    const ServingFixture fx;
    const ShardingPlan plan = fx.sizeGreedy(); // leaves tables in UVM
    const auto resolvers = fx.resolve(plan);

    ServingConfig cfg = ServingFixture::servingConfig();
    cfg.server.cacheRows = 0;
    const ServingReport uncached =
        serveTraffic(fx.data, plan, resolvers, fx.system, cfg);
    ASSERT_GT(uncached.uvmAccesses, 0u);
    EXPECT_EQ(uncached.cacheHits, 0u);

    cfg.server.cacheRows = 4000;
    const ServingReport cached =
        serveTraffic(fx.data, plan, resolvers, fx.system, cfg);
    // Zipfian row popularity makes an LRU of a few thousand rows
    // productive: hits happen and slow-tier traffic shrinks.
    EXPECT_GT(cached.cacheHits, 0u);
    EXPECT_GT(cached.cacheHitRate, 0.0);
    EXPECT_LT(cached.uvmAccesses, uncached.uvmAccesses);
    EXPECT_LE(cached.p99Latency, uncached.p99Latency);
}

TEST(Serving, RecShardPlanMeetsBaselineTailLatency)
{
    const ServingFixture fx;
    const ShardingPlan rec = fx.recshard();
    const ShardingPlan base = fx.sizeGreedy();

    const auto reports = serveTrafficComparison(
        fx.data, {&base, &rec},
        {fx.resolve(base), fx.resolve(rec)}, fx.system,
        ServingFixture::servingConfig());
    ASSERT_EQ(reports.size(), 2u);
    const ServingReport &b = reports[0];
    const ServingReport &r = reports[1];

    // Identical traffic, so the comparison is plan-only: RecShard
    // serves more accesses from HBM and its tail can only improve.
    EXPECT_LT(r.uvmAccessFraction, b.uvmAccessFraction);
    EXPECT_LE(r.p99Latency, b.p99Latency);
    EXPECT_LE(r.slaViolationRate, b.slaViolationRate);
}

} // namespace
