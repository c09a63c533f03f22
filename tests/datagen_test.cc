/**
 * @file
 * Tests for the synthetic workload model: feature specs, the
 * RM1/RM2/RM3 model zoo (Table 2), batch generation, and drift.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "recshard/base/parallel.hh"
#include "recshard/base/stats.hh"
#include "recshard/datagen/dataset.hh"
#include "recshard/datagen/model_zoo.hh"

namespace {

using namespace recshard;

TEST(FeatureSpec, ByteAccounting)
{
    FeatureSpec f;
    f.name = "f";
    f.cardinality = 100;
    f.hashSize = 50;
    f.dim = 64;
    f.bytesPerElement = 4;
    f.coverage = 0.5;
    f.meanPool = 10;
    EXPECT_EQ(f.rowBytes(), 256u);
    EXPECT_EQ(f.tableBytes(), 12800u);
    EXPECT_DOUBLE_EQ(f.expectedAccessesPerSample(), 5.0);
}

TEST(ModelZoo, Rm1MatchesTable2Exactly)
{
    const ModelSpec rm1 = makeRm1(1.0);
    EXPECT_EQ(rm1.numFeatures(), kRmNumFeatures);
    EXPECT_EQ(rm1.totalHashRows(), kRm1TotalRows);
    // 318 GB total EMB size (Table 2): rows * 64 dims * 4 B.
    EXPECT_EQ(rm1.totalBytes(), kRm1TotalRows * 64ULL * 4ULL);
    EXPECT_NEAR(static_cast<double>(rm1.totalBytes()) / 1e9, 341.0,
                4.0); // 318 GiB == ~341 decimal GB
}

TEST(ModelZoo, Rm2Rm3MatchTable2Exactly)
{
    EXPECT_EQ(makeRm2(1.0).totalHashRows(), kRm2TotalRows);
    EXPECT_EQ(makeRm3(1.0).totalHashRows(), kRm3TotalRows);
}

TEST(ModelZoo, RmsShareFeatureStatistics)
{
    // RM2 and RM3 are RM1 with rescaled hash sizes: every field the
    // draw reads is shared, which is what lets one draw per feature
    // profile all three (report/experiment).
    for (const double scale : {0.01, 1.0 / 32.0}) {
        SCOPED_TRACE("scale " + std::to_string(scale));
        const ModelSpec rm1 = makeRm1(scale);
        for (const ModelSpec &rm : {makeRm2(scale), makeRm3(scale)}) {
            SCOPED_TRACE(rm.name);
            const double growth = rm.name == "RM2" ? 2.0 : 4.0;
            ASSERT_EQ(rm1.numFeatures(), rm.numFeatures());
            for (std::uint32_t j = 0; j < rm1.numFeatures(); ++j) {
                const FeatureSpec &a = rm1.features[j];
                const FeatureSpec &b = rm.features[j];
                EXPECT_EQ(a.cardinality, b.cardinality);
                EXPECT_EQ(a.alpha, b.alpha);
                EXPECT_EQ(a.meanPool, b.meanPool);
                EXPECT_EQ(a.poolSigma, b.poolSigma);
                EXPECT_EQ(a.maxPool, b.maxPool);
                EXPECT_EQ(a.coverage, b.coverage);
                EXPECT_EQ(a.kind, b.kind);
                EXPECT_EQ(a.hashSalt, b.hashSalt);
                // Hash sizes grow 2x (RM2) or 4x (RM3), min-clamped
                // tables excepted.
                if (a.hashSize > 1000) {
                    const double ratio =
                        static_cast<double>(b.hashSize) /
                        static_cast<double>(a.hashSize);
                    EXPECT_NEAR(ratio, growth, 0.05 * growth);
                }
            }
        }
    }
}

TEST(ModelZoo, RowScaleShrinksProportionally)
{
    const ModelSpec full = makeRm1(1.0);
    const ModelSpec scaled = makeRm1(1.0 / 64.0);
    const double ratio = static_cast<double>(scaled.totalHashRows()) /
        static_cast<double>(full.totalHashRows());
    EXPECT_NEAR(ratio, 1.0 / 64.0, 0.001);
}

TEST(ModelZoo, DeterministicAcrossCalls)
{
    const ModelSpec a = makeRm1(0.01);
    const ModelSpec b = makeRm1(0.01);
    ASSERT_EQ(a.numFeatures(), b.numFeatures());
    for (std::uint32_t j = 0; j < a.numFeatures(); ++j) {
        EXPECT_EQ(a.features[j].hashSize, b.features[j].hashSize);
        EXPECT_EQ(a.features[j].hashSalt, b.features[j].hashSalt);
    }
}

TEST(ModelZoo, CharacterizationRangesMatchPaper)
{
    const ModelSpec rm1 = makeRm1(1.0);
    RunningStat pool, coverage, alpha;
    int near_uniform = 0;
    for (const auto &f : rm1.features) {
        pool.push(f.meanPool);
        coverage.push(f.coverage);
        alpha.push(f.alpha);
        near_uniform += f.alpha < 0.3;
    }
    // Fig. 6a: pooling factors from ~1 up to ~200.
    EXPECT_LT(pool.min(), 3.0);
    EXPECT_GT(pool.max(), 100.0);
    // Fig. 6b: coverage from <1% to 100%.
    EXPECT_LT(coverage.min(), 0.01);
    EXPECT_DOUBLE_EQ(coverage.max(), 1.0);
    // Fig. 5: a handful of near-uniform features, most skewed.
    EXPECT_GT(near_uniform, 10);
    EXPECT_LT(near_uniform, 100);
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeRmByName("rm9", 1.0),
                ::testing::ExitedWithCode(1), "unknown model");
}

TEST(Dataset, BatchShapeAndDeterminism)
{
    const ModelSpec model = makeTinyModel(4, 500, 7);
    SyntheticDataset data(model, 99);

    const FeatureBatch a = data.featureBatch(0, 64, 3);
    const FeatureBatch b = data.featureBatch(0, 64, 3);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.indices, b.indices);
    EXPECT_EQ(a.batchSize(), 64u);
    ASSERT_EQ(a.offsets.size(), 65u);
    EXPECT_EQ(a.offsets.front(), 0u);
    EXPECT_EQ(a.offsets.back(), a.indices.size());

    const FeatureBatch c = data.featureBatch(0, 64, 4);
    EXPECT_NE(a.indices, c.indices); // different batch index
}

TEST(Dataset, IndicesStayWithinHashSize)
{
    const ModelSpec model = makeTinyModel(4, 300, 11);
    SyntheticDataset data(model, 5);
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const FeatureBatch fb = data.featureBatch(j, 256, 0);
        for (const auto idx : fb.indices)
            EXPECT_LT(idx, model.features[j].hashSize);
    }
}

TEST(Dataset, EmpiricalStatsTrackSpec)
{
    ModelSpec model = makeTinyModel(1, 2000, 3);
    model.features[0].coverage = 0.6;
    model.features[0].meanPool = 12.0;
    model.features[0].poolSigma = 0.4;
    model.features[0].maxPool = 100;
    SyntheticDataset data(model, 17);

    std::uint64_t present = 0, samples = 0, lookups = 0;
    for (std::uint64_t b = 0; b < 40; ++b) {
        const FeatureBatch fb = data.featureBatch(0, 512, b);
        present += fb.presentSamples();
        samples += fb.batchSize();
        lookups += fb.numLookups();
    }
    const double coverage = static_cast<double>(present) / samples;
    const double avg_pool = static_cast<double>(lookups) / present;
    EXPECT_NEAR(coverage, 0.6, 0.02);
    EXPECT_NEAR(avg_pool, 12.0, 0.8);
}

TEST(Dataset, SkewedFeatureConcentratesAccesses)
{
    ModelSpec model = makeTinyModel(1, 5000, 23);
    model.features[0].alpha = 1.4;
    model.features[0].cardinality = 100000;
    model.features[0].coverage = 1.0;
    SyntheticDataset data(model, 31);

    std::vector<std::uint64_t> counts(model.features[0].hashSize, 0);
    for (std::uint64_t b = 0; b < 20; ++b)
        for (const auto idx : data.featureBatch(0, 512, b).indices)
            ++counts[idx];
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 0, head = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < counts.size() / 100)
            head += counts[i];
    }
    // Top 1% of rows should hold a large share of accesses.
    EXPECT_GT(static_cast<double>(head) / total, 0.5);
}

/** Order-sensitive fold of a batch's offsets and indices. */
std::uint64_t
foldBatch(std::uint64_t h, const FeatureBatch &fb)
{
    const auto step = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
        h ^= h >> 29;
    };
    for (const auto o : fb.offsets)
        step(o);
    for (const auto idx : fb.indices)
        step(idx);
    return h;
}

// The exact bytes featureBatch emits. Profiles, plans, goldens and
// every virtual metric derive from this stream, so a faster sampler
// or hasher must reproduce it bit for bit; these checksums were
// recorded from the rejection-inversion sampler with a `%` hasher.
TEST(Dataset, StreamIsPinned)
{
    // 16 batches of 40 RM3-at-1/32 features (every tenth EMB).
    {
        const SyntheticDataset data(makeRm3(1.0 / 32.0), 106);
        std::uint64_t h = 0xcbf29ce484222325ULL, lookups = 0;
        for (std::uint64_t b = 0; b < 16; ++b) {
            for (std::uint32_t j = 0; j < 400; j += 10) {
                const FeatureBatch fb = data.featureBatch(j, 64, b);
                h = foldBatch(h, fb);
                lookups += fb.numLookups();
            }
        }
        EXPECT_EQ(lookups, 990228u);
        EXPECT_EQ(h, 8868296634918470595ULL);
    }
    // The serve-3tier tiny model under hot-set churn, months 0-11.
    {
        SyntheticDataset data(makeTinyModel(16, 20000, 7), 3);
        DriftModel drift;
        drift.hotChurnPerMonth = 0.05;
        data.setDrift(drift);
        std::uint64_t h = 0xcbf29ce484222325ULL, lookups = 0;
        for (std::uint32_t m = 0; m < 12; ++m) {
            data.setMonth(m);
            for (std::uint32_t j = 0; j < 16; ++j) {
                const FeatureBatch fb = data.featureBatch(j, 32, m);
                h = foldBatch(h, fb);
                lookups += fb.numLookups();
            }
        }
        EXPECT_EQ(lookups, 146035u);
        EXPECT_EQ(h, 1020057717696456003ULL);
    }
    // A 1-sample batch.
    {
        const SyntheticDataset data(makeTinyModel(4, 500, 7), 99);
        const FeatureBatch fb = data.featureBatch(2, 1, 5);
        EXPECT_EQ(fb.numLookups(), 1u);
        EXPECT_EQ(foldBatch(0xcbf29ce484222325ULL, fb),
                  2837186034016722947ULL);
    }
}

// One dataset shared by the whole worker team, as profileDataset and
// the replay engine share it: concurrent draws read its samplers and
// must equal the serial stream. Under TSan this is the race check
// for the per-feature samplers; 80 features also take the
// constructor's parallel sampler build.
TEST(Dataset, SharedDatasetDrawsOnWorkerTeam)
{
    const SyntheticDataset data(makeTinyModel(80, 3000, 13), 21);
    constexpr std::uint32_t kBatches = 3;
    const std::size_t items = 80 * kBatches;
    std::vector<FeatureBatch> parallel(items);
    parallelFor(items, [&](std::size_t i) {
        parallel[i] = data.featureBatch(
            static_cast<std::uint32_t>(i % 80), 64, i / 80);
    });
    for (std::size_t i = 0; i < items; ++i) {
        const FeatureBatch serial = data.featureBatch(
            static_cast<std::uint32_t>(i % 80), 64, i / 80);
        EXPECT_EQ(parallel[i].offsets, serial.offsets) << i;
        EXPECT_EQ(parallel[i].indices, serial.indices) << i;
    }
}

TEST(Drift, MultiplierShapesMatchFig9)
{
    const DriftModel drift;
    // Zero month: multiplier near 1 for both kinds.
    EXPECT_NEAR(drift.multiplier(FeatureKind::User, 0), 1.0, 0.02);
    EXPECT_NEAR(drift.multiplier(FeatureKind::Content, 0), 1.0, 0.02);
    // After 20 months: users drift more than content (Fig. 9).
    const double user20 = drift.multiplier(FeatureKind::User, 20);
    const double content20 =
        drift.multiplier(FeatureKind::Content, 20);
    EXPECT_GT(user20, content20);
    EXPECT_NEAR(user20, 1.10, 0.03);
    EXPECT_NEAR(content20, 1.05, 0.03);
}

TEST(Drift, DatasetPoolingFollowsMonth)
{
    ModelSpec model = makeTinyModel(1, 1000, 3);
    model.features[0].coverage = 1.0;
    model.features[0].meanPool = 20.0;
    model.features[0].poolSigma = 0.3;
    model.features[0].maxPool = 200;
    model.features[0].kind = FeatureKind::User;
    SyntheticDataset data(model, 5);

    auto mean_pool_at = [&](std::uint32_t month) {
        data.setMonth(month);
        std::uint64_t lookups = 0, present = 0;
        for (std::uint64_t b = 0; b < 20; ++b) {
            const FeatureBatch fb = data.featureBatch(0, 512, b);
            lookups += fb.numLookups();
            present += fb.presentSamples();
        }
        return static_cast<double>(lookups) / present;
    };
    const double m0 = mean_pool_at(0);
    const double m20 = mean_pool_at(20);
    EXPECT_GT(m20, m0 * 1.05);
}

TEST(Dataset, DenseBatchIsStandardNormal)
{
    const ModelSpec model = makeTinyModel(2, 100, 1);
    SyntheticDataset data(model, 77);
    const auto dense = data.denseBatch(13, 2048, 0);
    ASSERT_EQ(dense.size(), 13u * 2048u);
    RunningStat acc;
    for (float v : dense)
        acc.push(v);
    EXPECT_NEAR(acc.mean(), 0.0, 0.05);
    EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(Dataset, RejectsBadArguments)
{
    const ModelSpec model = makeTinyModel(2, 100, 1);
    SyntheticDataset data(model, 1);
    EXPECT_EXIT(data.featureBatch(9, 8, 0),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(data.featureBatch(0, 0, 0),
                ::testing::ExitedWithCode(1), "batch size");
}

} // namespace
