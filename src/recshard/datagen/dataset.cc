#include "recshard/datagen/dataset.hh"

#include <cmath>
#include <optional>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"
#include "recshard/dist/sampling.hh"

namespace recshard {

std::uint32_t
FeatureBatch::presentSamples() const
{
    std::uint32_t present = 0;
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
        present += offsets[i + 1] > offsets[i];
    return present;
}

double
DriftModel::multiplier(FeatureKind kind, std::uint32_t month) const
{
    const double slope = kind == FeatureKind::User
        ? userSlopePerMonth : contentSlopePerMonth;
    const double phase = kind == FeatureKind::User ? 0.0 : 1.3;
    return 1.0 + slope * month +
        wiggleAmplitude * std::sin(0.9 * month + phase);
}

std::uint64_t
DriftModel::valueShift(std::uint32_t month,
                       std::uint64_t cardinality) const
{
    if (hotChurnPerMonth <= 0.0 || month == 0 || cardinality == 0)
        return 0;
    const double raw = hotChurnPerMonth *
        static_cast<double>(month) *
        static_cast<double>(cardinality);
    return static_cast<std::uint64_t>(raw) % cardinality;
}

SyntheticDataset::SyntheticDataset(ModelSpec spec_, std::uint64_t seed_)
    : model(std::move(spec_)), seed(seed_)
{
    model.validate();
    // A sampler tabulates its head as it is built, ~10 µs at RM
    // shapes, so a full RM model builds its samplers on the worker
    // team. The kept samplers are copies made on this thread: the
    // workers' guide tables are freed before the constructor
    // returns, so no long-lived block pins a worker's malloc arena
    // (with the tables left there, perfbench train-rm read higher
    // peak RSS and solve times).
    constexpr std::size_t kParallelMinFeatures = 64;
    std::vector<std::optional<ZipfSampler>> built(model.numFeatures());
    parallelFor(built.size(), [&](std::size_t j) {
        built[j].emplace(model.features[j].cardinality,
                         model.features[j].alpha);
    }, kParallelMinFeatures);
    zipfs.reserve(built.size());
    hashers.reserve(built.size());
    for (std::size_t j = 0; j < built.size(); ++j) {
        zipfs.push_back(*built[j]);
        hashers.emplace_back(model.features[j].hashSize,
                             model.features[j].hashSalt);
    }
}

template <bool kHashed>
FeatureBatch
SyntheticDataset::draw(std::uint32_t feature, std::uint32_t batch_size,
                       std::uint64_t batch_index) const
{
    fatal_if(feature >= model.numFeatures(),
             "feature ", feature, " out of range");
    fatal_if(batch_size == 0, "batch size must be >= 1");
    const FeatureSpec &f = model.features[feature];

    // Independent substream per (feature, month, batch index).
    Rng rng = Rng(seed).fork(feature)
        .fork((static_cast<std::uint64_t>(monthV) << 40) ^
              batch_index);

    const double drifted_pool = f.meanPool *
        driftV.multiplier(f.kind, monthV);
    const PoolingDist pooling(drifted_pool, f.poolSigma, f.maxPool);
    const ZipfSampler &zipf = zipfs[feature];
    const FeatureHasher &hasher = hashers[feature];
    // Popularity churn: rotate the raw value space so the hot ranks
    // land on new values as months pass. Value and shift are both
    // below the cardinality, so one conditional subtract is the
    // `% cardinality`, and zero churn is the historical stream.
    const std::uint64_t card = f.cardinality;
    const std::uint64_t shift = driftV.valueShift(monthV, card);

    FeatureBatch batch;
    batch.offsets.reserve(batch_size + 1);
    batch.offsets.push_back(0);
    batch.indices.reserve(static_cast<std::size_t>(
        batch_size * f.coverage * drifted_pool * 1.2) + 8);
    for (std::uint32_t s = 0; s < batch_size; ++s) {
        if (rng.bernoulli(f.coverage)) {
            const std::uint32_t pool = pooling(rng);
            for (std::uint32_t k = 0; k < pool; ++k) {
                std::uint64_t v = zipf(rng) + shift;
                v -= v >= card ? card : 0;
                batch.indices.push_back(kHashed ? hasher(v) : v);
            }
        }
        batch.offsets.push_back(
            static_cast<std::uint32_t>(batch.indices.size()));
    }
    return batch;
}

FeatureBatch
SyntheticDataset::featureBatch(std::uint32_t feature,
                               std::uint32_t batch_size,
                               std::uint64_t batch_index) const
{
    return draw<true>(feature, batch_size, batch_index);
}

FeatureBatch
SyntheticDataset::rawFeatureBatch(std::uint32_t feature,
                                  std::uint32_t batch_size,
                                  std::uint64_t batch_index) const
{
    return draw<false>(feature, batch_size, batch_index);
}

SparseBatch
SyntheticDataset::batch(std::uint32_t batch_size,
                        std::uint64_t batch_index) const
{
    SparseBatch out;
    out.batchSize = batch_size;
    out.features.reserve(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        out.features.push_back(featureBatch(j, batch_size,
                                            batch_index));
    return out;
}

std::vector<float>
SyntheticDataset::denseBatch(std::uint32_t num_dense,
                             std::uint32_t batch_size,
                             std::uint64_t batch_index) const
{
    Rng rng = Rng(seed).fork(0xdef5eULL).fork(batch_index);
    std::vector<float> values(static_cast<std::size_t>(num_dense) *
                              batch_size);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    return values;
}

} // namespace recshard
