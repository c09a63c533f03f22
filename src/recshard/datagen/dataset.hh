/**
 * @file
 * Synthetic training-data stream.
 *
 * Generates multi-hot sparse batches whose statistics follow a
 * ModelSpec: per-feature Zipf value draws, log-normal pooling
 * factors, Bernoulli coverage, and post-hash row indices. Batches
 * are addressable by (feature, batch index) so profiling, trace
 * replay, and DLRM training can all re-derive identical data from a
 * single seed without materializing a dataset on disk — the paper's
 * equivalent is streaming samples from a production data store.
 * Each feature's Zipf sampler and hasher are built once, with the
 * dataset; featureBatch only reads them, so any number of threads
 * may draw batches from one dataset at once.
 *
 * A drift model perturbs mean pooling factors over synthetic months
 * to reproduce the time-varying memory demand of Section 3.5
 * (Fig. 9).
 */

#ifndef RECSHARD_DATAGEN_DATASET_HH
#define RECSHARD_DATAGEN_DATASET_HH

#include <cstdint>
#include <vector>

#include "recshard/base/random.hh"
#include "recshard/datagen/feature_spec.hh"
#include "recshard/dist/zipf.hh"
#include "recshard/hashing/hashers.hh"

namespace recshard {

/**
 * One EMB's lookups for one batch, in CSR layout: sample i owns
 * indices[offsets[i] .. offsets[i+1]). An empty range means the
 * feature is absent from that sample (coverage miss).
 */
struct FeatureBatch
{
    std::vector<std::uint32_t> offsets; //!< batchSize + 1 entries
    std::vector<std::uint64_t> indices; //!< hashed EMB row ids

    std::uint32_t batchSize() const
    {
        return offsets.empty()
            ? 0 : static_cast<std::uint32_t>(offsets.size() - 1);
    }

    std::uint64_t numLookups() const { return indices.size(); }

    /** Samples in which the feature is present (non-empty range). */
    std::uint32_t presentSamples() const;
};

/** All features' lookups for one batch. */
struct SparseBatch
{
    std::uint32_t batchSize = 0;
    std::vector<FeatureBatch> features;
};

/**
 * Month-scale drift of feature statistics (paper Fig. 9): user and
 * content features trend upward at different rates with a small
 * seasonal wiggle.
 */
struct DriftModel
{
    double userSlopePerMonth = 0.0050;
    double contentSlopePerMonth = 0.0022;
    double wiggleAmplitude = 0.012;
    /**
     * Popularity churn: fraction of a feature's raw value space the
     * Zipf ranking rotates per month, so *which* values are hot
     * shifts gradually even though the rank-frequency shape stays
     * fixed. 0 (the default) keeps the historical behavior — the
     * hot set is month-stable and only pooling volume drifts —
     * which is what makes a static plan near-optimal forever; the
     * replan benches opt in to nonzero churn to model the
     * hot-set turnover of production catalogs.
     */
    double hotChurnPerMonth = 0.0;

    /** Multiplier applied to a feature's mean pooling factor. */
    double multiplier(FeatureKind kind, std::uint32_t month) const;

    /**
     * Raw-value rotation applied before hashing for a feature of
     * the given cardinality at `month`: value v is drawn as
     * (v + shift) % cardinality, so rank-k hotness moves to a new
     * value once the cumulative shift passes k. Always 0 when
     * hotChurnPerMonth is 0 or month is 0.
     */
    std::uint64_t valueShift(std::uint32_t month,
                             std::uint64_t cardinality) const;
};

/** Deterministic synthetic data stream for one model. */
class SyntheticDataset
{
  public:
    /**
     * @param spec Model whose statistics to synthesize (copied).
     * @param seed Stream seed; the same (seed, feature, batch index)
     *             always yields the same data.
     */
    SyntheticDataset(ModelSpec spec, std::uint64_t seed);

    const ModelSpec &spec() const { return model; }

    /** Advance the stream to a synthetic month (drift, Fig. 9). */
    void setMonth(std::uint32_t month) { monthV = month; }
    std::uint32_t month() const { return monthV; }

    /** Override the drift model. */
    void setDrift(const DriftModel &drift) { driftV = drift; }

    /**
     * Generate one feature's lookups for a batch.
     *
     * @param feature     Feature index within the model.
     * @param batch_size  Samples in the batch.
     * @param batch_index Which batch of the stream; batches with
     *                    different indices are independent.
     */
    FeatureBatch featureBatch(std::uint32_t feature,
                              std::uint32_t batch_size,
                              std::uint64_t batch_index) const;

    /**
     * The same batch, drawn into `out`: its vectors are cleared and
     * refilled, keeping their capacity, so a caller that draws many
     * batches through one buffer allocates only while it grows.
     */
    void featureBatch(std::uint32_t feature, std::uint32_t batch_size,
                      std::uint64_t batch_index, FeatureBatch &out) const;

    /**
     * The featureBatch draw with each raw (post-churn, pre-hash)
     * categorical value in `indices` instead of its EMB row. The
     * draw reads no hash size, so models that differ only in hash
     * sizes draw the same raw batch, and hashing it under each
     * model's FeatureHasher gives each model's featureBatch.
     */
    FeatureBatch rawFeatureBatch(std::uint32_t feature,
                                 std::uint32_t batch_size,
                                 std::uint64_t batch_index) const;

    /** Generate all features for one batch. */
    SparseBatch batch(std::uint32_t batch_size,
                      std::uint64_t batch_index) const;

    /**
     * Dense-feature values for one batch (standard normal), used by
     * the DLRM stack.
     */
    std::vector<float> denseBatch(std::uint32_t num_dense,
                                  std::uint32_t batch_size,
                                  std::uint64_t batch_index) const;

  private:
    /** The one draw loop, into `batch`: EMB rows if kHashed, else
     *  raw values. */
    template <bool kHashed>
    void draw(std::uint32_t feature, std::uint32_t batch_size,
              std::uint64_t batch_index, FeatureBatch &batch) const;

    ModelSpec model;
    std::uint64_t seed;
    std::uint32_t monthV = 0;
    DriftModel driftV;
    // Per-feature samplers, built once: neither depends on the
    // month or the drift, and drawing from them is const.
    std::vector<ZipfSampler> zipfs;
    std::vector<FeatureHasher> hashers;
};

} // namespace recshard

#endif // RECSHARD_DATAGEN_DATASET_HH
