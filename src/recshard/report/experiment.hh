/**
 * @file
 * Shared experiment harness for the paper-reproduction benches.
 *
 * Evaluates the three state-of-the-art baselines and RecShard on an
 * RM model under the paper's 16-GPU system (Sections 5-6), with a
 * row-scale knob so the full pipeline runs on modest hosts. Every
 * run recomputes: RM1-RM3 differ only in hash sizes, so one draw per
 * feature profiles all of them, and nothing is read from or written
 * to disk.
 */

#ifndef RECSHARD_REPORT_EXPERIMENT_HH
#define RECSHARD_REPORT_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/base/flags.hh"
#include "recshard/engine/execution.hh"

namespace recshard {

/** Configuration shared by all reproduction benches. */
struct ExperimentConfig
{
    double scale = 1.0 / 32.0;    //!< model + capacity row scale
    std::uint32_t gpus = 16;
    std::uint32_t batch = 4096;   //!< replay batch size
    std::uint32_t warmup = 1;
    std::uint32_t iters = 5;      //!< measured iterations
    std::uint64_t seed = 42;
    std::uint64_t profileSamples = 40000;

    /** Register the standard flags on a parser. */
    static void addFlags(FlagSet &flags);

    /**
     * Read the standard flags back; fatal if a count flag is out of
     * its field's range (--warmup >= 0, the others >= 1).
     */
    static ExperimentConfig fromFlags(const FlagSet &flags);
};

/** Summary of one strategy's plan + replay on one model. */
struct StrategyResult
{
    std::string name;
    /** Per-EMB (gpu, hbmRows, hashSize) triples. */
    std::vector<std::uint32_t> gpu;
    std::vector<std::uint64_t> hbmRows;
    std::vector<std::uint64_t> hashSize;
    /** Per-GPU mean iteration seconds. */
    std::vector<double> gpuMeanTime;
    double meanBottleneckTime = 0.0;
    /** Per-GPU traffic totals over the measured window. */
    std::vector<GpuTraffic> traffic;
    std::uint32_t iterations = 0;

    double hbmAccessesPerGpuIter() const;
    double uvmAccessesPerGpuIter() const;
    double uvmAccessFraction() const;
    /** Total rows this strategy keeps in UVM. */
    std::uint64_t totalUvmRows() const;
};

/** Every evaluated strategy on one model. */
struct ModelEvaluation
{
    std::string modelName;
    /** In PlannerRegistry order; with only the built-ins that is
     *  Size-Based, Lookup-Based, Size-Based-Lookup, RecShard. */
    std::vector<StrategyResult> strategies;

    const StrategyResult &byName(const std::string &name) const;
};

/**
 * Evaluate every registered scalable planner (the registry's
 * baselines plus RecShard, plus anything externally registered) on
 * each named RM ("rm1"/"rm2"/"rm3"), in the order named. All models
 * are profiled from one draw per feature; each model's strategies
 * then replay identical traffic.
 */
std::vector<ModelEvaluation>
evaluateModels(const ExperimentConfig &config,
               const std::vector<std::string> &model_names);

/**
 * Evaluate the Section 6.5 ablation ladder (CDF only, +Coverage,
 * +Pooling, Full) of RecShard on one model.
 */
ModelEvaluation evaluateAblation(const ExperimentConfig &config,
                                 const std::string &model_name);

/** The paper's headline numbers for side-by-side printing. */
namespace paper {

/** Table 3 (ms): min/max/mean/stddev per model per strategy. */
struct Table3Row
{
    const char *model;
    const char *strategy;
    double min, max, mean, stddev;
};
extern const Table3Row kTable3[12];

/** Table 5 per-GPU per-iteration access counts. */
struct Table5Row
{
    const char *model;
    const char *strategy;
    double hbm, uvm;
};
extern const Table5Row kTable5[12];

} // namespace paper

} // namespace recshard

#endif // RECSHARD_REPORT_EXPERIMENT_HH
