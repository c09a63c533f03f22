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

void
EmbProfiler::add(const FeatureBatch &batch)
{
    panic_if(finished, "profiler reused after finish()");
    totalSamples += batch.batchSize();
    presentSamples += batch.presentSamples();
    lookups += batch.numLookups();
    for (const std::uint64_t row : batch.indices) {
        panic_if(row >= hashSize, "row ", row,
                 " outside hash size ", hashSize);
        if (useDense)
            ++dense[row];
        else
            ++sparse[row];
    }
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

std::vector<EmbProfile>
profileDataset(const SyntheticDataset &data, std::uint64_t num_samples,
               std::uint32_t batch_size)
{
    fatal_if(num_samples == 0, "cannot profile zero samples");
    fatal_if(batch_size == 0, "batch size must be >= 1");
    const ModelSpec &model = data.spec();
    // Batch-index region disjoint from training replay (which uses
    // small indices).
    constexpr std::uint64_t kProfileRegion = 1ULL << 40;
    // One item owns one EMB from counter allocation to CDF: it walks
    // the EMB's batches in batch-index order, the stream a serial
    // loop over (batch, feature) would feed it, and frees the
    // counter before its worker takes another EMB. After the join
    // the profiles are only collected.
    std::vector<EmbProfile> out(model.numFeatures());
    parallelFor(model.numFeatures(), [&](std::size_t j) {
        const auto feature = static_cast<std::uint32_t>(j);
        EmbProfiler emb(model.features[j].hashSize);
        std::uint64_t remaining = num_samples;
        for (std::uint64_t b = kProfileRegion; remaining > 0; ++b) {
            const auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(batch_size, remaining));
            emb.add(data.featureBatch(feature, n, b));
            remaining -= n;
        }
        out[j] = emb.finish();
    });
    return out;
}

} // namespace recshard
