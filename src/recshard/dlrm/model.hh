/**
 * @file
 * The full miniature DLRM (paper Fig. 2): bottom MLP over dense
 * features, embedding bags over sparse features, dot-product
 * feature interaction, top MLP, and binary cross-entropy on the
 * click-through-rate prediction — all trained with plain SGD.
 *
 * A synthetic "teacher" labeler generates learnable CTR labels from
 * the sparse/dense inputs so end-to-end training has real signal.
 */

#ifndef RECSHARD_DLRM_MODEL_HH
#define RECSHARD_DLRM_MODEL_HH

#include <cstdint>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/dlrm/embedding.hh"
#include "recshard/dlrm/mlp.hh"

namespace recshard {

/** DLRM hyperparameters. */
struct DlrmConfig
{
    std::uint32_t numDense = 13;  //!< dense-feature width
    std::uint32_t embDim = 8;     //!< must match the model spec dims
    float learningRate = 0.05f;
    std::uint64_t seed = 1;
};

/** One training batch: sparse + dense inputs and CTR labels. */
struct LabeledBatch
{
    std::uint32_t batchSize = 0;
    SparseBatch sparse;
    std::vector<float> dense;  //!< [batch x numDense]
    std::vector<float> labels; //!< [batch], 0/1
};

/**
 * Deterministic synthetic CTR teacher: a hidden hash-derived score
 * per categorical value plus a random linear form on the dense
 * features, squashed through a logistic link.
 */
class SyntheticLabeler
{
  public:
    SyntheticLabeler(std::uint32_t num_dense, std::uint64_t seed);

    /** Label a generated batch in place. */
    LabeledBatch label(const SyntheticDataset &data,
                       std::uint32_t batch_size,
                       std::uint64_t batch_index) const;

  private:
    std::uint32_t numDense;
    std::uint64_t seed;
    std::vector<float> denseWeight;
};

/** The trainable model. */
class DlrmModel
{
  public:
    /**
     * @param spec   Sparse-feature model (one EMB per feature);
     *               every feature's dim must equal config.embDim.
     * @param config Hyperparameters.
     */
    DlrmModel(const ModelSpec &spec, const DlrmConfig &config);

    /**
     * Forward pass producing CTR probabilities.
     *
     * @param batch Inputs (labels ignored).
     */
    std::vector<float> predict(const LabeledBatch &batch);

    /**
     * One SGD step on the batch.
     *
     * @return Mean binary cross-entropy before the update.
     */
    float trainStep(const LabeledBatch &batch);

    /** Mean BCE without updating parameters. */
    float evaluate(const LabeledBatch &batch);

    /**
     * Physically reorder every table per RecShard's remapping and
     * remember the remap so future lookups are translated. Training
     * results are bit-identical to the unremapped model.
     */
    void applyRemaps(std::vector<RemapTable> remaps);

    EmbeddingBag &embedding(std::uint32_t j) { return embs[j]; }

  private:
    /** Shared forward; caches intermediates for backward. */
    std::vector<float> forwardImpl(const LabeledBatch &batch);

    DlrmConfig cfg;
    std::uint32_t numFeatures;
    std::vector<EmbeddingBag> embs;
    Mlp bottom;
    Mlp top;
    std::vector<RemapTable> remaps; //!< empty until applyRemaps

    // Cached activations for backprop.
    std::vector<std::vector<float>> embOut;
    std::vector<float> bottomOut;
    std::vector<float> topIn;
    std::uint32_t lastBatch = 0;
};

} // namespace recshard

#endif // RECSHARD_DLRM_MODEL_HH
