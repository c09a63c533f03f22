/**
 * @file
 * Tests for training-data profiling (paper Section 4.1): CDF,
 * average pooling factor, and coverage estimation from sampled
 * batches, plus the <=1% sampling-sufficiency claim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"

namespace {

using namespace recshard;

TEST(Profiler, HandBuiltBatchStatistics)
{
    ModelSpec model = makeTinyModel(1, 100, 1);
    DataProfiler profiler(model);

    // 4 samples: lookups {3, 0(absent), 2, 1} to rows 5,5,9 / 9,5 / 5.
    FeatureBatch fb;
    fb.offsets = {0, 3, 3, 5, 6};
    fb.indices = {5, 5, 9, 9, 5, 5};
    profiler.addFeatureBatch(0, fb);

    const auto profiles = profiler.finalize();
    ASSERT_EQ(profiles.size(), 1u);
    const EmbProfile &p = profiles[0];
    EXPECT_EQ(p.samplesSeen, 4u);
    EXPECT_EQ(p.lookups, 6u);
    EXPECT_DOUBLE_EQ(p.coverage, 0.75);
    EXPECT_DOUBLE_EQ(p.avgPool, 2.0);
    EXPECT_EQ(p.cdf.touchedRows(), 2u);
    EXPECT_EQ(p.cdf.totalAccesses(), 6u);
    // Row 5 (4 accesses) outranks row 9 (2 accesses).
    EXPECT_EQ(p.cdf.rankedRows()[0], 5u);
    EXPECT_EQ(p.cdf.rankedRows()[1], 9u);
}

TEST(Profiler, MatchesGeneratorGroundTruth)
{
    ModelSpec model = makeTinyModel(3, 2000, 9);
    model.features[1].coverage = 0.35;
    model.features[1].meanPool = 8.0;
    SyntheticDataset data(model, 1234);

    const auto profiles = profileDataset(data, 20000, 1024);
    ASSERT_EQ(profiles.size(), 3u);
    EXPECT_NEAR(profiles[1].coverage, 0.35, 0.02);
    EXPECT_NEAR(profiles[1].avgPool, 8.0, 0.5);
    for (const auto &p : profiles) {
        EXPECT_EQ(p.samplesSeen, 20000u);
        EXPECT_GT(p.lookups, 0u);
    }
}

TEST(Profiler, SparseAndDensePathsAgree)
{
    // Same stream profiled with dense arrays vs hash maps.
    ModelSpec model = makeTinyModel(2, 5000, 21);
    SyntheticDataset data(model, 55);

    DataProfiler dense_prof(model, /*dense_threshold=*/1ULL << 40);
    DataProfiler sparse_prof(model, /*dense_threshold=*/0);
    for (std::uint64_t b = 0; b < 10; ++b) {
        for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
            const FeatureBatch fb = data.featureBatch(j, 512, b);
            dense_prof.addFeatureBatch(j, fb);
            sparse_prof.addFeatureBatch(j, fb);
        }
    }
    const auto a = dense_prof.finalize();
    const auto b = sparse_prof.finalize();
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        EXPECT_EQ(a[j].cdf.totalAccesses(), b[j].cdf.totalAccesses());
        EXPECT_EQ(a[j].cdf.touchedRows(), b[j].cdf.touchedRows());
        EXPECT_DOUBLE_EQ(a[j].avgPool, b[j].avgPool);
        EXPECT_DOUBLE_EQ(a[j].coverage, b[j].coverage);
        EXPECT_EQ(a[j].cdf.icdfSteps(20), b[j].cdf.icdfSteps(20));
    }
}

TEST(Profiler, SmallSampleYieldsPlacementQualityStatistics)
{
    // The paper's Section 4.1 claim: a small sample of the data
    // store yields placement-quality statistics. The placement-
    // relevant test: if the sharder sizes an HBM split using the
    // small profile's ICDF, the chosen row budget must deliver
    // nearly the promised access coverage under the full profile.
    ModelSpec model = makeTinyModel(2, 20000, 77);
    model.features[0].alpha = 1.2;
    model.features[0].cardinality = 500000;
    model.features[0].meanPool = 20.0;
    model.features[0].coverage = 0.9;
    model.features[1].alpha = 0.8;
    model.features[1].meanPool = 8.0;
    model.features[1].coverage = 0.5;
    SyntheticDataset data(model, 31);

    const auto small = profileDataset(data, 5000, 1000);
    const auto large = profileDataset(data, 500000, 8192);

    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        EXPECT_NEAR(small[j].coverage, large[j].coverage, 0.03);
        EXPECT_NEAR(small[j].avgPool, large[j].avgPool,
                    large[j].avgPool * 0.1);
        for (double p : {0.5, 0.8, 0.9}) {
            const auto rows = small[j].cdf.rowsForFraction(p);
            const double delivered =
                large[j].cdf.accessFraction(rows);
            EXPECT_NEAR(delivered, p, 0.10)
                << "feature " << j << " fraction " << p;
        }
    }
}

std::uint64_t
bits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(double));
    return b;
}

TEST(Profiler, ParallelProfileMatchesSequentialLoop)
{
    // 10000 samples at batch 4096 is three batches per feature (the
    // last one partial). Feature 2's hash size is past the default
    // dense threshold (2^25), so it takes the sparse accumulator
    // while the others take the dense one.
    ModelSpec model = makeTinyModel(5, 3000, 41);
    model.features[2].hashSize = (1ULL << 25) + 12345;
    model.features[2].cardinality = 1ULL << 22;
    const SyntheticDataset data(model, 907);
    constexpr std::uint64_t kSamples = 10000;
    constexpr std::uint32_t kBatch = 4096;

    // The serial loop profileDataset ran before it was parallelized.
    DataProfiler serial(model);
    std::uint64_t remaining = kSamples;
    for (std::uint64_t b = 1ULL << 40; remaining > 0; ++b) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kBatch, remaining));
        for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
            serial.addFeatureBatch(j, data.featureBatch(j, n, b));
        remaining -= n;
    }
    const auto want = serial.finalize();
    const auto got = profileDataset(data, kSamples, kBatch);

    ASSERT_EQ(got.size(), want.size());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        SCOPED_TRACE("feature " + std::to_string(j));
        EXPECT_EQ(got[j].samplesSeen, kSamples);
        EXPECT_EQ(got[j].samplesSeen, want[j].samplesSeen);
        EXPECT_EQ(got[j].lookups, want[j].lookups);
        EXPECT_EQ(bits(got[j].coverage), bits(want[j].coverage));
        EXPECT_EQ(bits(got[j].avgPool), bits(want[j].avgPool));
        EXPECT_EQ(got[j].cdf.hashSize(), want[j].cdf.hashSize());
        EXPECT_EQ(got[j].cdf.totalAccesses(),
                  want[j].cdf.totalAccesses());
        ASSERT_EQ(got[j].cdf.rankedRows(), want[j].cdf.rankedRows());
        for (std::uint64_t r = 0; r < want[j].cdf.touchedRows(); ++r)
            ASSERT_EQ(got[j].cdf.countAtRank(r),
                      want[j].cdf.countAtRank(r))
                << "rank " << r;
    }
}

TEST(Profiler, RejectsMisuse)
{
    ModelSpec model = makeTinyModel(1, 100, 1);
    DataProfiler profiler(model);
    FeatureBatch fb;
    fb.offsets = {0, 0};
    EXPECT_EXIT(profiler.addFeatureBatch(7, fb),
                ::testing::ExitedWithCode(1), "out of range");
    profiler.finalize();
    EXPECT_DEATH(profiler.finalize(), "twice");
}

} // namespace
