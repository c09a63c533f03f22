/**
 * @file
 * Tests for the cache-admission subsystem: policy construction and
 * validation, TinyLFU doorkeeper/sketch/aging behavior, CDF-gated
 * threshold edge cases, admission-aware LRU mechanics, and the
 * end-to-end headline — frequency-aware admission meets or beats
 * plain LRU hit rate at equal capacity on a Zipf-skewed trace.
 * Everything is seeded and simulated in virtual time, so every
 * expectation is deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/sharding/recshard_solver.hh"

namespace {

using namespace recshard;

// ------------------------------------------------ factory basics

TEST(CacheAdmission, PolicyNamesAreRegistered)
{
    const auto &names = cacheAdmissionPolicyNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "always");
    EXPECT_EQ(names[1], "tinylfu");
    EXPECT_EQ(names[2], "cdf-gated");
    for (const char *name : {"always", "tinylfu"}) {
        CacheAdmissionConfig cfg;
        cfg.policy = name;
        const auto policy = makeCacheAdmission(cfg, 16);
        EXPECT_STREQ(policy->name(), name);
    }
}

TEST(CacheAdmission, UnknownPolicyNameDies)
{
    CacheAdmissionConfig cfg;
    cfg.policy = "clairvoyant";
    EXPECT_DEATH(makeCacheAdmission(cfg, 16), "unknown");
}

TEST(CacheAdmission, CdfGatedRequiresCdfs)
{
    CacheAdmissionConfig cfg;
    cfg.policy = "cdf-gated";
    EXPECT_DEATH(makeCacheAdmission(cfg, 16), "profiled CDFs");
}

TEST(CacheAdmission, CdfGatedQuantileIsValidated)
{
    const FrequencyCdf cdf(10, {{0, 5}});
    CacheAdmissionConfig cfg;
    cfg.policy = "cdf-gated";
    cfg.cdfs = {&cdf};
    cfg.hotQuantile = 1.5;
    EXPECT_DEATH(makeCacheAdmission(cfg, 16), "outside");
}

TEST(CacheAdmission, AlwaysAdmitsEverything)
{
    CacheAdmissionConfig cfg;
    const auto policy = makeCacheAdmission(cfg, 4);
    EXPECT_TRUE(policy->admit(1, false, 0));
    EXPECT_TRUE(policy->admit(2, true, 1));
    EXPECT_EQ(policy->frequency(1), 0u);
}

// -------------------------------------------------------- TinyLFU

/** TinyLFU instance with aging effectively disabled. */
std::unique_ptr<CacheAdmission>
makeTinyLfu(std::uint64_t aging_sample = 1 << 20,
            bool doorkeeper = true)
{
    CacheAdmissionConfig cfg;
    cfg.policy = "tinylfu";
    cfg.tinylfu.sketchWidth = 1024;
    cfg.tinylfu.agingSampleSize = aging_sample;
    cfg.tinylfu.doorkeeper = doorkeeper;
    return makeCacheAdmission(cfg, 16);
}

TEST(TinyLfu, DoorkeeperAdmitDenySequence)
{
    const auto lfu = makeTinyLfu();
    const std::uint64_t A = LruRowCache::rowKey(0, 11);
    const std::uint64_t B = LruRowCache::rowKey(0, 22);

    // First sighting parks A in the doorkeeper (frequency 1);
    // repeats reach the sketch.
    lfu->onAccess(A);
    EXPECT_EQ(lfu->frequency(A), 1u);
    lfu->onAccess(A);
    lfu->onAccess(A);
    EXPECT_EQ(lfu->frequency(A), 3u);
    EXPECT_EQ(lfu->frequency(B), 0u);

    // A filling cache admits everything — nothing can be polluted.
    EXPECT_TRUE(lfu->admit(B, false, 0));

    // At capacity, a cold candidate must not displace a warm
    // victim; the warm row displaces the cold one.
    EXPECT_FALSE(lfu->admit(B, true, A));
    EXPECT_TRUE(lfu->admit(A, true, B));

    // Ties deny: two never-seen keys cannot displace each other
    // (exactly the one-hit-wonder pollution TinyLFU prevents).
    const std::uint64_t C = LruRowCache::rowKey(1, 33);
    const std::uint64_t D = LruRowCache::rowKey(1, 44);
    EXPECT_FALSE(lfu->admit(C, true, D));

    // One access each leaves candidate and victim tied at
    // frequency 1 (both doorkeeper-only): still denied. A second
    // candidate access breaks the tie.
    lfu->onAccess(B);
    lfu->onAccess(C);
    EXPECT_FALSE(lfu->admit(B, true, C));
    lfu->onAccess(B);
    EXPECT_TRUE(lfu->admit(B, true, C));
}

TEST(TinyLfu, AgingHalvesTheSketchAndClearsTheDoorkeeper)
{
    // Aging fires on the 32nd recorded access.
    const auto lfu = makeTinyLfu(32);
    const std::uint64_t A = LruRowCache::rowKey(0, 7);

    for (int i = 0; i < 10; ++i)
        lfu->onAccess(A);
    // Doorkeeper ate the first access, the sketch holds 9, and the
    // doorkeeper contributes +1.
    EXPECT_EQ(lfu->frequency(A), 10u);

    // 22 distinct one-off keys (doorkeeper-only, so the sketch
    // stays clean) bring the access count to 32 and trigger the
    // reset: counters halve (9 -> 4), the doorkeeper clears.
    for (std::uint64_t k = 0; k < 22; ++k)
        lfu->onAccess(LruRowCache::rowKey(2, 100 + k));
    EXPECT_EQ(lfu->frequency(A), 4u);

    // Recency beats stale popularity after aging: a row accessed 5
    // times *now* displaces the pre-reset hot row.
    const std::uint64_t B = LruRowCache::rowKey(0, 8);
    for (int i = 0; i < 5; ++i)
        lfu->onAccess(B);
    EXPECT_GT(lfu->frequency(B), lfu->frequency(A));
    EXPECT_TRUE(lfu->admit(B, true, A));
}

TEST(TinyLfu, CountersSaturateInsteadOfOverflowing)
{
    const auto lfu = makeTinyLfu();
    const std::uint64_t A = LruRowCache::rowKey(0, 3);
    for (int i = 0; i < 100; ++i)
        lfu->onAccess(A);
    // 4-bit ceiling (15) + doorkeeper bit.
    EXPECT_EQ(lfu->frequency(A), 16u);
}

// ------------------------------------------------------ CDF-gated

/** 4 touched rows with sharply skewed counts in a 100-row table. */
FrequencyCdf
skewedCdf()
{
    return FrequencyCdf(100,
                        {{5, 100}, {9, 50}, {2, 10}, {77, 1}});
}

std::unique_ptr<CacheAdmission>
makeCdfGated(const FrequencyCdf &cdf, double quantile)
{
    CacheAdmissionConfig cfg;
    cfg.policy = "cdf-gated";
    cfg.cdfs = {&cdf};
    cfg.hotQuantile = quantile;
    return makeCacheAdmission(cfg, 16);
}

TEST(CdfGated, QuantileZeroAdmitsNothing)
{
    const FrequencyCdf cdf = skewedCdf();
    const auto gate = makeCdfGated(cdf, 0.0);
    for (const std::uint64_t row : {5, 9, 2, 77})
        EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, row),
                                 false, 0));
}

TEST(CdfGated, QuantileOneAdmitsEveryTouchedRowOnly)
{
    const FrequencyCdf cdf = skewedCdf();
    const auto gate = makeCdfGated(cdf, 1.0);
    for (const std::uint64_t row : {5, 9, 2, 77})
        EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, row),
                                false, 0));
    // Never-profiled rows carry zero observed mass: denied.
    EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, 50), false, 0));
}

TEST(CdfGated, MidQuantileSplitsHotFromCold)
{
    // Cumulative fractions: 100/161, 150/161 (~0.93), 160/161, 1.
    // rowsForFraction(0.9) = 2: rows 5 and 9 are hot, 2 and 77 are
    // not.
    const FrequencyCdf cdf = skewedCdf();
    const auto gate = makeCdfGated(cdf, 0.9);
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, 5), true, 1));
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, 9), true, 1));
    EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, 2), true, 1));
    EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, 77), true, 1));
}

TEST(CdfGated, GatesPerTable)
{
    const FrequencyCdf hot = skewedCdf();
    const FrequencyCdf other(100, {{1, 7}});
    CacheAdmissionConfig cfg;
    cfg.policy = "cdf-gated";
    cfg.cdfs = {&hot, &other};
    cfg.hotQuantile = 1.0;
    const auto gate = makeCacheAdmission(cfg, 16);
    // Row 5 is hot in table 0 but unprofiled in table 1.
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, 5), false, 0));
    EXPECT_FALSE(gate->admit(LruRowCache::rowKey(1, 5), false, 0));
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(1, 1), false, 0));
}

TEST(CdfGated, RowsAtOrPastTheHashSizeAreDenied)
{
    // Row 99 is the table's last row and profiled as the hottest;
    // rows 100 and beyond lie outside the bitset and must be
    // denied by the bounds check, not read out of bounds.
    const FrequencyCdf cdf(100, {{99, 10}, {3, 2}});
    const auto gate = makeCdfGated(cdf, 1.0);
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, 99), false, 0));
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(0, 3), false, 0));
    for (const std::uint64_t row :
         {100ULL, 101ULL, 4096ULL, (1ULL << 48) - 1})
        EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, row), false,
                                 0))
            << "row " << row;
}

TEST(CdfGated, NullCdfDeniesEveryRow)
{
    // ShardServer nulls the CDFs of other GPUs' tables.
    const FrequencyCdf cdf = skewedCdf();
    CacheAdmissionConfig cfg;
    cfg.policy = "cdf-gated";
    cfg.cdfs = {nullptr, &cdf};
    cfg.hotQuantile = 1.0;
    const auto gate = makeCacheAdmission(cfg, 16);
    for (const std::uint64_t row : {0, 2, 5, 9, 77, 99, 100})
        EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, row), true,
                                 LruRowCache::rowKey(1, 5)))
            << "row " << row;
    EXPECT_TRUE(gate->admit(LruRowCache::rowKey(1, 5), false, 0));
}

TEST(CdfGated, EmptyCdfDeniesEveryRow)
{
    const FrequencyCdf empty;
    for (const double q : {0.0, 0.5, 1.0}) {
        const auto gate = makeCdfGated(empty, q);
        for (const std::uint64_t row : {0, 1, 1000})
            EXPECT_FALSE(gate->admit(LruRowCache::rowKey(0, row),
                                     false, 0))
                << "quantile " << q << " row " << row;
    }
}

// ------------------------------------- admission-aware LRU cache

TEST(LruRowCache, RowKeyBoundsAreEnforced)
{
    EXPECT_EQ(LruRowCache::rowKey(3, 5),
              (3ULL << 48) | 5ULL);
    EXPECT_DEATH(LruRowCache::rowKey(1u << 16, 0), "16 bits");
    EXPECT_DEATH(LruRowCache::rowKey(0, 1ULL << 48), "48 bits");
}

TEST(LruRowCache, RejectedMissesNeverEnterTheCache)
{
    const FrequencyCdf cdf = skewedCdf();
    const auto gate = makeCdfGated(cdf, 0.0); // admits nothing
    LruRowCache cache(4, gate.get());
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(cache.touch(LruRowCache::rowKey(0, 5)));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.rejected(), 3u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(LruRowCache, TinyLfuKeepsWarmRowsThroughAColdScan)
{
    const auto lfu = makeTinyLfu();
    LruRowCache cache(2, lfu.get());
    const std::uint64_t A = LruRowCache::rowKey(0, 1);
    const std::uint64_t B = LruRowCache::rowKey(0, 2);

    // Warm up two recurring rows; hit/miss is irrelevant here.
    for (int i = 0; i < 4; ++i) {
        (void)cache.touch(A);
        (void)cache.touch(B);
    }
    EXPECT_EQ(cache.size(), 2u);

    // A one-pass cold scan that would flush a plain LRU.
    for (std::uint64_t k = 0; k < 20; ++k)
        EXPECT_FALSE(cache.touch(LruRowCache::rowKey(1, 100 + k)));

    // The warm rows survived: every scan miss was refused.
    EXPECT_TRUE(cache.touch(A));
    EXPECT_TRUE(cache.touch(B));
    EXPECT_EQ(cache.rejected(), 20u);
}

TEST(LruRowCache, AlwaysPolicyMatchesPlainLru)
{
    CacheAdmissionConfig cfg;
    const auto always = makeCacheAdmission(cfg, 2);
    LruRowCache gated(2, always.get());
    LruRowCache plain(2);
    const std::uint64_t keys[] = {1, 2, 1, 3, 2, 2, 4, 1};
    for (const std::uint64_t k : keys)
        EXPECT_EQ(gated.touch(k), plain.touch(k));
    EXPECT_EQ(gated.hits(), plain.hits());
    EXPECT_EQ(gated.misses(), plain.misses());
    EXPECT_EQ(gated.rejected(), 0u);
}

// ----------------------------------------- end-to-end headline

/** Capacity-constrained serving fixture (mirrors serving_test). */
struct AdmissionFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    ShardingPlan plan;
    std::vector<TierResolver> resolvers;

    AdmissionFixture()
        : model(embiggen(makeTinyModel(12, 20000, 7))),
          data(model, 2024), system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = model.totalBytes() / 5;
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 30000, 4096);
        // The size-greedy baseline leaves whole tables in UVM —
        // the regime where the hot-row cache earns its keep.
        plan = greedyShard(BaselineCost::Size, model, profiles,
                           system);
        resolvers = ExecutionEngine::buildResolvers(model, plan,
                                                    profiles);
    }

    static ModelSpec
    embiggen(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 128;
        return spec;
    }

    ServingReport
    serve(const std::string &policy, std::uint64_t cache_rows) const
    {
        ServingConfig cfg;
        cfg.load.qps = 4000.0;
        cfg.load.meanQuerySamples = 4.0;
        cfg.load.seed = 99;
        cfg.batching.maxBatchQueries = 16;
        cfg.batching.maxBatchSamples = 64;
        cfg.batching.maxWaitSeconds = 0.002;
        cfg.server.batchOverheadSeconds = 5e-6;
        cfg.server.cacheRows = cache_rows;
        cfg.server.admission.policy = policy;
        cfg.server.admission.cdfs = collectCdfs(profiles);
        cfg.numQueries = 3000;
        cfg.slaSeconds = 0.010;
        return serveTraffic(data, plan, resolvers, system, cfg);
    }
};

const AdmissionFixture &
admissionFixture()
{
    static const AdmissionFixture fx;
    return fx;
}

TEST(AdmissionServing, FrequencyAwareMeetsPlainLruHitRate)
{
    // The acceptance headline, enforced: on the same Zipf-skewed
    // trace at equal capacity, frequency-aware admission meets or
    // beats classic admit-everything LRU hit rate.
    const AdmissionFixture &fx = admissionFixture();
    const std::uint64_t capacity = 1000;
    const ServingReport always = fx.serve("always", capacity);
    const ServingReport tinylfu = fx.serve("tinylfu", capacity);
    const ServingReport gated = fx.serve("cdf-gated", capacity);

    ASSERT_GT(always.uvmAccesses, 0u);
    ASSERT_GT(always.cacheHitRate, 0.0);
    EXPECT_GE(tinylfu.cacheHitRate, always.cacheHitRate);
    EXPECT_GE(std::max(tinylfu.cacheHitRate, gated.cacheHitRate),
              always.cacheHitRate);
    // Fewer slow-tier trips can only help the tail.
    EXPECT_LE(tinylfu.uvmAccesses, always.uvmAccesses);
}

TEST(AdmissionServing, DeterministicAcrossRuns)
{
    const AdmissionFixture &fx = admissionFixture();
    const ServingReport a = fx.serve("tinylfu", 1000);
    const ServingReport b = fx.serve("tinylfu", 1000);
    EXPECT_DOUBLE_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
}

TEST(AdmissionServing, UnknownPolicyDiesBeforeServing)
{
    const AdmissionFixture &fx = admissionFixture();
    EXPECT_DEATH(fx.serve("clairvoyant", 100), "unknown");
}

} // namespace
