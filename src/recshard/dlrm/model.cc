#include "recshard/dlrm/model.hh"

#include <algorithm>
#include <cmath>

#include "recshard/base/logging.hh"
#include "recshard/hashing/hashers.hh"

namespace recshard {

namespace {

/** Width of the one hidden layer in each of the bottom and top
 *  MLPs. */
constexpr std::uint32_t kHiddenWidth = 32;

inline float
sigmoidf(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

/** Hidden per-(feature, row) affinity in [-1, 1]. */
inline float
teacherAffinity(std::uint32_t feature, std::uint64_t row,
                std::uint64_t seed)
{
    const std::uint64_t mixed = mixSplitMix64(
        row ^ (seed + 0x9e3779b97f4a7c15ULL * (feature + 1)));
    return static_cast<float>(mixed >> 11) * 0x1.0p-52f - 1.0f;
}

} // namespace

SyntheticLabeler::SyntheticLabeler(std::uint32_t num_dense,
                                   std::uint64_t seed_)
    : numDense(num_dense), seed(seed_)
{
    Rng rng(seed ^ 0xabcdefULL);
    denseWeight.resize(numDense);
    for (auto &w : denseWeight)
        w = static_cast<float>(rng.gaussian(0.0, 0.5));
}

LabeledBatch
SyntheticLabeler::label(const SyntheticDataset &data,
                        std::uint32_t batch_size,
                        std::uint64_t batch_index) const
{
    LabeledBatch out;
    out.batchSize = batch_size;
    out.sparse = data.batch(batch_size, batch_index);
    out.dense = data.denseBatch(numDense, batch_size, batch_index);
    out.labels.resize(batch_size);

    Rng rng = Rng(seed).fork(batch_index);
    for (std::uint32_t s = 0; s < batch_size; ++s) {
        float score = 0.0f;
        for (std::uint32_t i = 0; i < numDense; ++i)
            score += denseWeight[i] *
                out.dense[static_cast<std::size_t>(s) * numDense + i];
        for (std::uint32_t j = 0;
             j < out.sparse.features.size(); ++j) {
            const FeatureBatch &fb = out.sparse.features[j];
            const std::uint32_t lo = fb.offsets[s];
            const std::uint32_t hi = fb.offsets[s + 1];
            if (lo == hi)
                continue;
            float acc = 0.0f;
            for (std::uint32_t k = lo; k < hi; ++k)
                acc += teacherAffinity(j, fb.indices[k], seed);
            score += 1.5f * acc / static_cast<float>(hi - lo);
        }
        out.labels[s] =
            rng.nextDouble() < sigmoidf(score) ? 1.0f : 0.0f;
    }
    return out;
}

DlrmModel::DlrmModel(const ModelSpec &spec, const DlrmConfig &config)
    : cfg(config), numFeatures(spec.numFeatures()),
      bottom([&] {
          Rng rng(cfg.seed ^ 0xb0b0ULL);
          return Mlp({cfg.numDense, kHiddenWidth, cfg.embDim}, rng);
      }()),
      top([&] {
          const std::uint32_t pairs =
              (spec.numFeatures() + 1) * spec.numFeatures() / 2;
          Rng rng(cfg.seed ^ 0x70f0ULL);
          return Mlp({cfg.embDim + pairs, kHiddenWidth, 1}, rng);
      }())
{
    Rng emb_rng(cfg.seed ^ 0xe3bULL);
    embs.reserve(numFeatures);
    for (std::uint32_t j = 0; j < numFeatures; ++j) {
        fatal_if(spec.features[j].dim != cfg.embDim,
                 "feature '", spec.features[j].name, "' has dim ",
                 spec.features[j].dim, " but the model expects ",
                 cfg.embDim);
        embs.emplace_back(spec.features[j].hashSize, cfg.embDim,
                          emb_rng);
    }
}

std::vector<float>
DlrmModel::forwardImpl(const LabeledBatch &batch)
{
    const std::uint32_t n = batch.batchSize;
    const std::uint32_t d = cfg.embDim;
    lastBatch = n;

    bottomOut = bottom.forward(batch.dense, n);

    embOut.assign(numFeatures, {});
    for (std::uint32_t j = 0; j < numFeatures; ++j) {
        if (remaps.empty()) {
            embOut[j] = embs[j].forward(batch.sparse.features[j]);
        } else {
            FeatureBatch remapped = batch.sparse.features[j];
            remaps[j].remapIndices(remapped.indices);
            embOut[j] = embs[j].forward(remapped);
        }
    }

    // Feature interaction: pairwise dots over {bottom, emb_0, ...}.
    const std::uint32_t vecs = numFeatures + 1;
    const std::uint32_t pairs = vecs * (vecs - 1) / 2;
    topIn.assign(static_cast<std::size_t>(n) * (d + pairs), 0.0f);
    auto vec_at = [&](std::uint32_t v, std::uint32_t s) -> const
        float * {
        return v == 0
            ? &bottomOut[static_cast<std::size_t>(s) * d]
            : &embOut[v - 1][static_cast<std::size_t>(s) * d];
    };
    for (std::uint32_t s = 0; s < n; ++s) {
        float *row = &topIn[static_cast<std::size_t>(s) * (d + pairs)];
        const float *bo = vec_at(0, s);
        for (std::uint32_t k = 0; k < d; ++k)
            row[k] = bo[k];
        std::uint32_t p = d;
        for (std::uint32_t a = 0; a < vecs; ++a) {
            const float *va = vec_at(a, s);
            for (std::uint32_t b = a + 1; b < vecs; ++b) {
                const float *vb = vec_at(b, s);
                float dot = 0.0f;
                for (std::uint32_t k = 0; k < d; ++k)
                    dot += va[k] * vb[k];
                row[p++] = dot;
            }
        }
    }

    std::vector<float> logits = top.forward(topIn, n);
    for (auto &z : logits)
        z = sigmoidf(z);
    return logits;
}

std::vector<float>
DlrmModel::predict(const LabeledBatch &batch)
{
    return forwardImpl(batch);
}

float
DlrmModel::evaluate(const LabeledBatch &batch)
{
    const std::vector<float> prob = forwardImpl(batch);
    float loss = 0.0f;
    for (std::uint32_t s = 0; s < batch.batchSize; ++s) {
        const float p = std::clamp(prob[s], 1e-7f, 1.0f - 1e-7f);
        loss -= batch.labels[s] * std::log(p) +
            (1.0f - batch.labels[s]) * std::log(1.0f - p);
    }
    return loss / static_cast<float>(batch.batchSize);
}

float
DlrmModel::trainStep(const LabeledBatch &batch)
{
    const std::uint32_t n = batch.batchSize;
    const std::uint32_t d = cfg.embDim;
    const std::vector<float> prob = forwardImpl(batch);

    float loss = 0.0f;
    std::vector<float> grad_logit(n);
    for (std::uint32_t s = 0; s < n; ++s) {
        const float p = std::clamp(prob[s], 1e-7f, 1.0f - 1e-7f);
        loss -= batch.labels[s] * std::log(p) +
            (1.0f - batch.labels[s]) * std::log(1.0f - p);
        // d(BCE)/d(logit) for a sigmoid output.
        grad_logit[s] = (prob[s] - batch.labels[s]) /
            static_cast<float>(n);
    }
    loss /= static_cast<float>(n);

    // Backward through the top MLP.
    const std::vector<float> grad_top_in = top.backward(grad_logit,
                                                        n);

    // Backward through the interaction into per-vector gradients.
    const std::uint32_t vecs = numFeatures + 1;
    const std::uint32_t pairs = vecs * (vecs - 1) / 2;
    std::vector<std::vector<float>> grad_vec(
        vecs,
        std::vector<float>(static_cast<std::size_t>(n) * d, 0.0f));
    auto vec_at = [&](std::uint32_t v, std::uint32_t s) -> const
        float * {
        return v == 0
            ? &bottomOut[static_cast<std::size_t>(s) * d]
            : &embOut[v - 1][static_cast<std::size_t>(s) * d];
    };
    for (std::uint32_t s = 0; s < n; ++s) {
        const float *gin =
            &grad_top_in[static_cast<std::size_t>(s) * (d + pairs)];
        // Direct bottom-output passthrough.
        for (std::uint32_t k = 0; k < d; ++k)
            grad_vec[0][static_cast<std::size_t>(s) * d + k] +=
                gin[k];
        std::uint32_t p = d;
        for (std::uint32_t a = 0; a < vecs; ++a) {
            for (std::uint32_t b = a + 1; b < vecs; ++b) {
                const float g = gin[p++];
                if (g == 0.0f)
                    continue;
                const float *va = vec_at(a, s);
                const float *vb = vec_at(b, s);
                float *ga =
                    &grad_vec[a][static_cast<std::size_t>(s) * d];
                float *gb =
                    &grad_vec[b][static_cast<std::size_t>(s) * d];
                for (std::uint32_t k = 0; k < d; ++k) {
                    ga[k] += g * vb[k];
                    gb[k] += g * va[k];
                }
            }
        }
    }

    bottom.backward(grad_vec[0], n);
    for (std::uint32_t j = 0; j < numFeatures; ++j)
        embs[j].backwardSgd(grad_vec[j + 1], cfg.learningRate);
    bottom.sgdStep(cfg.learningRate);
    top.sgdStep(cfg.learningRate);
    return loss;
}

void
DlrmModel::applyRemaps(std::vector<RemapTable> new_remaps)
{
    fatal_if(new_remaps.size() != numFeatures,
             "expected ", numFeatures, " remap tables, got ",
             new_remaps.size());
    fatal_if(!remaps.empty(), "remaps already applied");
    for (std::uint32_t j = 0; j < numFeatures; ++j)
        embs[j].applyRemap(new_remaps[j]);
    remaps = std::move(new_remaps);
}

} // namespace recshard
