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
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/serving/cache_admission.hh"
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
    EXPECT_FALSE(cache.touch(2)); // miss (evicted); MRU->LRU order
                                  // is [3,1], so it evicts 1
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

/**
 * The node-based LRU the flat cache replaced (std::list in MRU
 * order plus an unordered_map into it), kept as the differential
 * reference: same admission calls, same victim, same counters.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t capacity, CacheAdmission *admission)
        : cap(capacity), gate(admission)
    {
    }

    bool
    touch(std::uint64_t key)
    {
        if (cap == 0)
            return false;
        if (gate)
            gate->onAccess(key);
        const auto it = map.find(key);
        if (it != map.end()) {
            order.splice(order.begin(), order, it->second);
            ++hits;
            return true;
        }
        ++misses;
        const bool full = map.size() >= cap;
        if (gate && !gate->admit(key, full, full ? order.back() : 0)) {
            ++rejected;
            return false;
        }
        if (full) {
            map.erase(order.back());
            order.pop_back();
        }
        order.push_front(key);
        map[key] = order.begin();
        return false;
    }

    std::uint64_t size() const { return map.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;

  private:
    std::uint64_t cap;
    CacheAdmission *gate;
    std::list<std::uint64_t> order;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map;
};

/** One admit() call as the cache made it. */
struct AdmitCall
{
    std::uint64_t key;
    bool full;
    std::uint64_t victim;

    bool
    operator==(const AdmitCall &o) const
    {
        return key == o.key && full == o.full && victim == o.victim;
    }
};

/** Forwards to a real policy and records every admit() call. */
class SpyAdmission final : public CacheAdmission
{
  public:
    explicit SpyAdmission(std::unique_ptr<CacheAdmission> inner_)
        : inner(std::move(inner_))
    {
    }

    void onAccess(std::uint64_t key) override { inner->onAccess(key); }

    bool
    admit(std::uint64_t key, bool full, std::uint64_t victim) override
    {
        calls.push_back({key, full, victim});
        return inner->admit(key, full, victim);
    }

    const char *name() const override { return inner->name(); }

    std::vector<AdmitCall> calls;

  private:
    std::unique_ptr<CacheAdmission> inner;
};

constexpr std::uint32_t kDiffTables = 4;
constexpr std::uint64_t kDiffHashSize = 1000;
/** LruRowCache's slot-table sizing: slots per cached row, before
 *  rounding up to a power of two (lru_cache.cc). */
constexpr std::uint64_t kLruSlotsPerRow = 8;

/** Zipf-ish rows over the first `head_rows` rows of a few tables,
 *  plus uniform cold rows, some past the CDFs' hash size. */
std::vector<std::uint64_t>
zipfishKeys(std::uint64_t seed, std::size_t n, std::uint64_t head_rows)
{
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto table = static_cast<std::uint32_t>(
            rng.uniformInt(0, kDiffTables - 1));
        const double u = rng.nextDouble();
        const std::uint64_t row = rng.bernoulli(0.1)
            ? static_cast<std::uint64_t>(rng.uniformInt(0, 1200))
            : static_cast<std::uint64_t>(
                  u * u * u * u * static_cast<double>(head_rows));
        keys.push_back(LruRowCache::rowKey(table, row));
    }
    return keys;
}

/**
 * Keys whose home slots in a `capacity`-row cache's slot table are
 * the last two slots or the first one, so probe chains grow long,
 * wrap around the table end, and every eviction runs backward-shift
 * deletion across them. Mirrors the cache's hash (Fibonacci hashing
 * into a power-of-two table of at least kLruSlotsPerRow x capacity);
 * if that hash or sizing changes the stream is still a valid
 * differential input, only a less adversarial one.
 */
std::vector<std::uint64_t>
collidingKeys(std::uint64_t capacity, std::uint64_t seed,
              std::size_t n)
{
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) < kLruSlotsPerRow * capacity)
        ++bits;
    const std::uint64_t slots = std::uint64_t{1} << bits;
    std::vector<std::uint64_t> pool;
    for (std::uint64_t row = 0; pool.size() < 3 * capacity + 8;
         ++row) {
        const std::uint64_t key = LruRowCache::rowKey(
            static_cast<std::uint32_t>(row % kDiffTables), row);
        const std::uint64_t home =
            (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
        if (home + 2 >= slots || home == 0)
            pool.push_back(key);
    }
    Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Skew toward the pool's front so some keys recur as hits.
        const double u = rng.nextDouble();
        keys.push_back(pool[static_cast<std::size_t>(
            u * u * static_cast<double>(pool.size()))]);
    }
    return keys;
}

/** Zipf-skewed profiled CDFs for the differential tables. */
std::vector<FrequencyCdf>
diffCdfs()
{
    std::vector<FrequencyCdf> cdfs;
    Rng rng(0xCDF0ULL);
    for (std::uint32_t t = 0; t < kDiffTables; ++t) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        for (std::uint64_t row = 0; row < 600; ++row)
            if (rng.bernoulli(0.8))
                counts.emplace_back(
                    row, 1 + 10000 / ((row + 1) * (t + 1)));
        cdfs.emplace_back(kDiffHashSize, std::move(counts));
    }
    return cdfs;
}

TEST(LruRowCache, FlatCacheMatchesNodeBasedReference)
{
    const std::vector<FrequencyCdf> cdfs = diffCdfs();
    std::vector<const FrequencyCdf *> cdfPtrs;
    for (const FrequencyCdf &cdf : cdfs)
        cdfPtrs.push_back(&cdf);

    for (const std::uint64_t capacity :
         {1, 2, 3, 64, 500, 1000, 4096}) {
        // A cache larger than the stream's key set never evicts, so
        // the Zipf head widens with the largest capacities.
        const std::vector<std::vector<std::uint64_t>> streams = {
            zipfishKeys(capacity, 20000,
                        std::max<std::uint64_t>(800, capacity)),
            collidingKeys(capacity, capacity + 7, 20000)};
        for (const char *policy :
             {"", "always", "tinylfu", "cdf-gated"}) {
            for (std::size_t st = 0; st < streams.size(); ++st) {
                SCOPED_TRACE(::testing::Message()
                             << "capacity " << capacity << " policy '"
                             << policy << "' stream " << st);
                std::unique_ptr<SpyAdmission> flatGate, refGate;
                if (*policy) {
                    CacheAdmissionConfig cfg;
                    cfg.policy = policy;
                    cfg.cdfs = cdfPtrs;
                    cfg.hotQuantile = 0.8;
                    flatGate = std::make_unique<SpyAdmission>(
                        makeCacheAdmission(cfg, capacity));
                    refGate = std::make_unique<SpyAdmission>(
                        makeCacheAdmission(cfg, capacity));
                }
                LruRowCache flat(capacity, flatGate.get());
                ReferenceLru ref(capacity, refGate.get());
                std::uint64_t hits = 0;
                for (std::size_t i = 0; i < streams[st].size(); ++i) {
                    const std::uint64_t key = streams[st][i];
                    const bool hit = ref.touch(key);
                    hits += hit;
                    ASSERT_EQ(flat.touch(key), hit) << "touch " << i;
                    ASSERT_EQ(flat.size(), ref.size()) << "touch " << i;
                    ASSERT_EQ(flat.hits(), ref.hits) << "touch " << i;
                    ASSERT_EQ(flat.misses(), ref.misses)
                        << "touch " << i;
                    ASSERT_EQ(flat.rejected(), ref.rejected)
                        << "touch " << i;
                    if (flatGate) {
                        ASSERT_EQ(flatGate->calls.size(),
                                  refGate->calls.size())
                            << "touch " << i;
                        ASSERT_TRUE(flatGate->calls.empty() ||
                                    flatGate->calls.back() ==
                                        refGate->calls.back())
                            << "touch " << i;
                    }
                }
                // Not vacuous: the run hits and evicts. cdf-gated
                // instead denies: its hot set is smaller than the
                // largest cache, and the colliding rows lie mostly
                // past the CDFs' hash size.
                if (std::string(policy) == "cdf-gated") {
                    EXPECT_GT(ref.rejected, 0u);
                    if (st == 0) {
                        EXPECT_GT(hits, 0u);
                    }
                } else {
                    EXPECT_GT(hits, 0u);
                    EXPECT_GT(ref.misses - ref.rejected, capacity);
                }
            }
        }
    }
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
