#include "recshard/profiler/profiler.hh"

#include <algorithm>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

EmbProfiler::EmbProfiler(std::uint64_t hash_size,
                         std::uint64_t dense_threshold)
    : hashSize(hash_size), useDense(hash_size <= dense_threshold)
{
    if (useDense)
        dense.assign(hash_size, 0);
}

template <class Map>
void
EmbProfiler::count(const FeatureBatch &batch, const Map &map)
{
    panic_if(finished, "profiler reused after finish()");
    totalSamples += batch.batchSize();
    presentSamples += batch.presentSamples();
    lookups += batch.numLookups();
    for (const std::uint64_t value : batch.indices) {
        const std::uint64_t row = map(value);
        panic_if(row >= hashSize, "row ", row,
                 " outside hash size ", hashSize);
        if (useDense)
            ++dense[row];
        else
            ++sparse[row];
    }
}

void
EmbProfiler::add(const FeatureBatch &batch)
{
    count(batch, [](std::uint64_t row) { return row; });
}

void
EmbProfiler::add(const FeatureBatch &raw_batch,
                 const FeatureHasher &hasher)
{
    panic_if(hasher.hashSize() != hashSize, "hasher of ",
             hasher.hashSize(), " rows for an EMB of ", hashSize);
    count(raw_batch, hasher);
}

EmbProfile
EmbProfiler::finish()
{
    panic_if(finished, "profiler finished twice");
    finished = true;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    if (useDense) {
        for (std::uint64_t row = 0; row < dense.size(); ++row)
            if (dense[row])
                counts.emplace_back(row, dense[row]);
        std::vector<std::uint32_t>().swap(dense);
    } else {
        counts.reserve(sparse.size());
        // lint:allow(no-unordered-iteration): FrequencyCdf ctor sorts by row, then ranks
        for (const auto &[row, count] : sparse)
            counts.emplace_back(row, count);
        std::unordered_map<std::uint64_t, std::uint64_t>().swap(sparse);
    }
    EmbProfile profile;
    profile.cdf = FrequencyCdf(hashSize, std::move(counts));
    profile.samplesSeen = totalSamples;
    profile.lookups = lookups;
    profile.coverage = totalSamples
        ? static_cast<double>(presentSamples) /
              static_cast<double>(totalSamples)
        : 0.0;
    profile.avgPool = presentSamples
        ? static_cast<double>(lookups) /
              static_cast<double>(presentSamples)
        : 0.0;
    return profile;
}

std::vector<std::vector<EmbProfile>>
profileHashSizes(const SyntheticDataset &data,
                 const std::vector<std::vector<std::uint64_t>> &hash_sizes,
                 std::uint64_t num_samples, std::uint32_t batch_size)
{
    fatal_if(num_samples == 0, "cannot profile zero samples");
    fatal_if(batch_size == 0, "batch size must be >= 1");
    const ModelSpec &model = data.spec();
    for (const auto &sizes : hash_sizes)
        fatal_if(sizes.size() != model.numFeatures(), "hash-size list of ",
                 sizes.size(), " entries for ", model.numFeatures(),
                 " features");
    // Batch-index region disjoint from training replay (which uses
    // small indices).
    constexpr std::uint64_t kProfileRegion = 1ULL << 40;
    // One item owns one EMB from counter allocation to CDF: it walks
    // the EMB's batches in batch-index order, the stream a serial
    // loop over (batch, feature) would feed it, counts each raw
    // batch once per hash size, and frees the counters before its
    // worker takes another EMB. After the join the profiles are only
    // collected.
    std::vector<std::vector<EmbProfile>> out(
        hash_sizes.size(), std::vector<EmbProfile>(model.numFeatures()));
    parallelFor(model.numFeatures(), [&](std::size_t j) {
        const auto feature = static_cast<std::uint32_t>(j);
        std::vector<FeatureHasher> hashers;
        std::vector<EmbProfiler> embs;
        for (const auto &sizes : hash_sizes) {
            hashers.emplace_back(sizes[j], model.features[j].hashSalt);
            embs.emplace_back(sizes[j]);
        }
        std::uint64_t remaining = num_samples;
        for (std::uint64_t b = kProfileRegion; remaining > 0; ++b) {
            const auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(batch_size, remaining));
            const FeatureBatch raw = data.rawFeatureBatch(feature, n, b);
            for (std::size_t m = 0; m < embs.size(); ++m)
                embs[m].add(raw, hashers[m]);
            remaining -= n;
        }
        for (std::size_t m = 0; m < embs.size(); ++m)
            out[m][j] = embs[m].finish();
    });
    return out;
}

std::vector<EmbProfile>
profileDataset(const SyntheticDataset &data, std::uint64_t num_samples,
               std::uint32_t batch_size)
{
    std::vector<std::uint64_t> sizes;
    for (const FeatureSpec &f : data.spec().features)
        sizes.push_back(f.hashSize);
    return std::move(
        profileHashSizes(data, {sizes}, num_samples, batch_size)[0]);
}

} // namespace recshard
