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
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"

namespace {

using namespace recshard;

TEST(Profiler, HandBuiltBatchStatistics)
{
    EmbProfiler profiler(100);

    // 4 samples: lookups {3, 0(absent), 2, 1} to rows 5,5,9 / 9,5 / 5.
    FeatureBatch fb;
    fb.offsets = {0, 3, 3, 5, 6};
    fb.indices = {5, 5, 9, 9, 5, 5};
    profiler.add(fb);

    const EmbProfile p = profiler.finish();
    EXPECT_EQ(p.cdf.hashSize(), 100u);
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

    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const std::uint64_t hash_size = model.features[j].hashSize;
        EmbProfiler dense_prof(hash_size, /*dense_threshold=*/1ULL << 40);
        EmbProfiler sparse_prof(hash_size, /*dense_threshold=*/0);
        for (std::uint64_t b = 0; b < 10; ++b) {
            const FeatureBatch fb = data.featureBatch(j, 512, b);
            dense_prof.add(fb);
            sparse_prof.add(fb);
        }
        const EmbProfile a = dense_prof.finish();
        const EmbProfile b = sparse_prof.finish();
        EXPECT_EQ(a.cdf.totalAccesses(), b.cdf.totalAccesses());
        EXPECT_EQ(a.cdf.touchedRows(), b.cdf.touchedRows());
        EXPECT_EQ(a.cdf.rankedRows(), b.cdf.rankedRows());
        EXPECT_DOUBLE_EQ(a.avgPool, b.avgPool);
        EXPECT_DOUBLE_EQ(a.coverage, b.coverage);
        EXPECT_EQ(a.cdf.icdfSteps(20), b.cdf.icdfSteps(20));
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

    // The serial loop profileDataset ran before it was parallelized:
    // every EMB's accumulator alive at once, fed batch by batch.
    std::vector<EmbProfiler> serial;
    for (const auto &f : model.features)
        serial.emplace_back(f.hashSize);
    std::uint64_t remaining = kSamples;
    for (std::uint64_t b = 1ULL << 40; remaining > 0; ++b) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kBatch, remaining));
        for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
            serial[j].add(data.featureBatch(j, n, b));
        remaining -= n;
    }
    std::vector<EmbProfile> want;
    for (auto &emb : serial)
        want.push_back(emb.finish());
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

/**
 * Expect `p` to be, bit for bit, EMB j's profile of the first
 * `samples` samples of data's featureBatch stream in the profiling
 * batch region, counted here with an ordered map.
 */
void
expectReferenceProfile(const EmbProfile &p, const SyntheticDataset &data,
                       std::uint32_t j, std::uint64_t samples,
                       std::uint32_t batch)
{
    std::map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t present = 0;
    std::uint64_t lookups = 0;
    std::uint64_t remaining = samples;
    for (std::uint64_t b = 1ULL << 40; remaining > 0; ++b) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(batch, remaining));
        const FeatureBatch fb = data.featureBatch(j, n, b);
        for (std::uint32_t s = 0; s < n; ++s)
            present += fb.offsets[s + 1] > fb.offsets[s];
        for (const std::uint64_t row : fb.indices)
            ++counts[row];
        lookups += fb.indices.size();
        remaining -= n;
    }
    // The map iterates by row id, so a stable sort on count alone
    // breaks ties by row id.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked(
        counts.begin(), counts.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    const auto singletons = static_cast<std::uint64_t>(
        std::count_if(ranked.begin(), ranked.end(),
                      [](const auto &rc) { return rc.second == 1; }));
    const double coverage = static_cast<double>(present) /
        static_cast<double>(samples);
    const double avg_pool = present
        ? static_cast<double>(lookups) / static_cast<double>(present)
        : 0.0;

    EXPECT_EQ(p.samplesSeen, samples);
    EXPECT_EQ(p.lookups, lookups);
    EXPECT_EQ(bits(p.coverage), bits(coverage));
    EXPECT_EQ(bits(p.avgPool), bits(avg_pool));
    EXPECT_EQ(p.cdf.hashSize(), data.spec().features[j].hashSize);
    EXPECT_EQ(p.cdf.totalAccesses(), lookups);
    EXPECT_EQ(p.cdf.singletonRows(), singletons);
    ASSERT_EQ(p.cdf.touchedRows(), ranked.size());
    for (std::uint64_t r = 0; r < ranked.size(); ++r) {
        ASSERT_EQ(p.cdf.rankedRows()[r], ranked[r].first)
            << "rank " << r;
        ASSERT_EQ(p.cdf.countAtRank(r), ranked[r].second)
            << "rank " << r;
    }
}

TEST(Profiler, ProfileMatchesReferenceOracle)
{
    // Feature 1 is past the dense threshold (2^25 rows), so it takes
    // the sparse counter; feature 2 is never present, so its profile
    // is an empty CDF with avgPool 0. 9000 samples at batch 2048 end
    // on a partial batch.
    ModelSpec model = makeTinyModel(4, 3000, 63);
    model.features[1].hashSize = (1ULL << 25) + 777;
    model.features[1].cardinality = 1ULL << 22;
    model.features[2].coverage = 0.0;
    const SyntheticDataset data(model, 4242);
    constexpr std::uint64_t kSamples = 9000;
    constexpr std::uint32_t kBatch = 2048;
    static_assert(kSamples % kBatch != 0, "want a partial batch");

    const auto got = profileDataset(data, kSamples, kBatch);
    ASSERT_EQ(got.size(), model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        SCOPED_TRACE("feature " + std::to_string(j));
        expectReferenceProfile(got[j], data, j, kSamples, kBatch);
    }
    // The three shapes the model is built to cover are all present.
    EXPECT_GT(got[1].cdf.touchedRows(), 0u);
    EXPECT_EQ(got[2].cdf.touchedRows(), 0u);
    EXPECT_EQ(bits(got[2].avgPool), bits(0.0));
    EXPECT_GT(got[0].cdf.touchedRows(), 0u);

    // One draw counted under several hash sizes: each list's profile
    // is the one its own model's featureBatch stream gives. Feature
    // 1 moves across the dense threshold both ways, and feature 2
    // stays never present.
    std::vector<std::vector<std::uint64_t>> hash_sizes(1);
    for (const FeatureSpec &f : model.features)
        hash_sizes[0].push_back(f.hashSize);
    hash_sizes.push_back({1000, 1ULL << 26, 50, 7});
    hash_sizes.push_back({97, 5000, 3000, 1ULL << 20});
    const auto multi =
        profileHashSizes(data, hash_sizes, kSamples, kBatch);
    ASSERT_EQ(multi.size(), hash_sizes.size());
    for (std::size_t m = 0; m < hash_sizes.size(); ++m) {
        ModelSpec sized = model;
        for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
            sized.features[j].hashSize = hash_sizes[m][j];
        const SyntheticDataset sized_data(sized, 4242);
        ASSERT_EQ(multi[m].size(), model.numFeatures());
        for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
            SCOPED_TRACE("hash sizes " + std::to_string(m) +
                         ", feature " + std::to_string(j));
            expectReferenceProfile(multi[m][j], sized_data, j,
                                   kSamples, kBatch);
        }
    }
}

TEST(Profiler, RejectsMisuse)
{
    EmbProfiler profiler(100);
    FeatureBatch fb;
    fb.offsets = {0, 1};
    fb.indices = {100};
    EXPECT_DEATH(profiler.add(fb), "row 100 outside hash size 100");
    profiler.finish();
    fb.indices = {99};
    EXPECT_DEATH(profiler.add(fb), "reused after finish");
    EXPECT_DEATH(profiler.finish(), "twice");

    const SyntheticDataset data(makeTinyModel(3, 100, 5), 1);
    EXPECT_DEATH(profileHashSizes(data, {{100, 100}}, 10, 10),
                 "hash-size list of 2 entries for 3 features");
    EXPECT_DEATH(EmbProfiler(100).add(fb, FeatureHasher(99)),
                 "hasher of 99 rows for an EMB of 100");
}

} // namespace
