#include "recshard/profiler/profiler.hh"

#include <algorithm>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

DataProfiler::DataProfiler(const ModelSpec &spec,
                           std::uint64_t dense_threshold)
    : model(spec)
{
    model.validate();
    acc.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const auto hash_size = model.features[j].hashSize;
        acc[j].useDense = hash_size <= dense_threshold;
        if (acc[j].useDense)
            acc[j].dense.assign(hash_size, 0);
    }
}

void
DataProfiler::addFeatureBatch(std::uint32_t feature,
                              const FeatureBatch &batch)
{
    panic_if(finalized, "profiler reused after finalize()");
    fatal_if(feature >= model.numFeatures(),
             "feature ", feature, " out of range");
    PerFeature &pf = acc[feature];
    const std::uint64_t hash_size = model.features[feature].hashSize;

    pf.totalSamples += batch.batchSize();
    pf.presentSamples += batch.presentSamples();
    pf.lookups += batch.numLookups();
    for (const std::uint64_t row : batch.indices) {
        panic_if(row >= hash_size, "row ", row,
                 " outside hash size ", hash_size,
                 " for feature ", feature);
        if (pf.useDense)
            ++pf.dense[row];
        else
            ++pf.sparse[row];
    }
}

void
DataProfiler::addBatch(const SparseBatch &batch)
{
    fatal_if(batch.features.size() != model.numFeatures(),
             "batch feature count ", batch.features.size(),
             " != model feature count ", model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        addFeatureBatch(j, batch.features[j]);
}

std::vector<EmbProfile>
DataProfiler::finalize()
{
    panic_if(finalized, "profiler finalized twice");
    finalized = true;

    std::vector<EmbProfile> out(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        PerFeature &pf = acc[j];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
        if (pf.useDense) {
            for (std::uint64_t row = 0; row < pf.dense.size(); ++row)
                if (pf.dense[row])
                    counts.emplace_back(row, pf.dense[row]);
            pf.dense.clear();
            pf.dense.shrink_to_fit();
        } else {
            counts.reserve(pf.sparse.size());
            // lint:allow(no-unordered-iteration): FrequencyCdf ctor sorts by (count, row)
            for (const auto &[row, count] : pf.sparse)
                counts.emplace_back(row, count);
            pf.sparse.clear();
        }
        EmbProfile &profile = out[j];
        profile.cdf = FrequencyCdf(model.features[j].hashSize,
                                   std::move(counts));
        profile.samplesSeen = pf.totalSamples;
        profile.lookups = pf.lookups;
        profile.coverage = pf.totalSamples
            ? static_cast<double>(pf.presentSamples) /
                  static_cast<double>(pf.totalSamples)
            : 0.0;
        profile.avgPool = pf.presentSamples
            ? static_cast<double>(pf.lookups) /
                  static_cast<double>(pf.presentSamples)
            : 0.0;
    }
    return out;
}

std::vector<EmbProfile>
profileDataset(const SyntheticDataset &data, std::uint64_t num_samples,
               std::uint32_t batch_size)
{
    fatal_if(num_samples == 0, "cannot profile zero samples");
    fatal_if(batch_size == 0, "batch size must be >= 1");
    DataProfiler profiler(data.spec());
    // Batch-index region disjoint from training replay (which uses
    // small indices).
    constexpr std::uint64_t kProfileRegion = 1ULL << 40;
    // Features accumulate into disjoint state, so each worker walks
    // one feature's batches in batch-index order; the profile is the
    // one a serial loop over (batch, feature) would build.
    parallelFor(data.spec().numFeatures(), [&](std::size_t j) {
        const auto feature = static_cast<std::uint32_t>(j);
        std::uint64_t remaining = num_samples;
        std::uint64_t batch_index = kProfileRegion;
        while (remaining > 0) {
            const auto this_batch = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(batch_size, remaining));
            profiler.addFeatureBatch(
                feature,
                data.featureBatch(feature, this_batch, batch_index));
            remaining -= this_batch;
            ++batch_index;
        }
    });
    return profiler.finalize();
}

} // namespace recshard
