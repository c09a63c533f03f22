#include "recshard/report/experiment.hh"

#include <algorithm>
#include <limits>
#include <tuple>

#include "recshard/base/logging.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"

namespace recshard {

void
ExperimentConfig::addFlags(FlagSet &flags)
{
    flags.addDouble("scale", 1.0 / 32.0,
                    "row scale applied to models and capacities");
    flags.addInt("gpus", 16, "trainer (GPU) count");
    flags.addInt("batch", 4096, "replay batch size");
    flags.addInt("warmup", 1, "warm-up iterations (untraced)");
    flags.addInt("iters", 5, "measured iterations");
    flags.addInt("seed", 42, "experiment seed");
    flags.addInt("profile-samples", 40000,
                 "training samples profiled per model");
}

namespace {

/** Flag `name` as a T, fatal unless it is in [lo, T's maximum]. */
template <class T>
T
boundedFlag(const FlagSet &flags, const char *name, std::int64_t lo)
{
    const std::int64_t v = flags.getInt(name);
    const auto hi = std::numeric_limits<T>::max();
    fatal_if(v < lo || static_cast<std::uint64_t>(v) > hi, "--", name,
             " must be in [", lo, ", ", hi, "], got ", v);
    return static_cast<T>(v);
}

} // namespace

ExperimentConfig
ExperimentConfig::fromFlags(const FlagSet &flags)
{
    ExperimentConfig cfg;
    cfg.scale = flags.getDouble("scale");
    cfg.gpus = boundedFlag<std::uint32_t>(flags, "gpus", 1);
    cfg.batch = boundedFlag<std::uint32_t>(flags, "batch", 1);
    cfg.warmup = boundedFlag<std::uint32_t>(flags, "warmup", 0);
    cfg.iters = boundedFlag<std::uint32_t>(flags, "iters", 1);
    cfg.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    cfg.profileSamples =
        boundedFlag<std::uint64_t>(flags, "profile-samples", 1);
    return cfg;
}

double
StrategyResult::hbmAccessesPerGpuIter() const
{
    std::uint64_t total = 0;
    for (const auto &t : traffic)
        total += t.hbmAccesses;
    return traffic.empty() || iterations == 0
        ? 0.0
        : static_cast<double>(total) /
            (static_cast<double>(traffic.size()) * iterations);
}

double
StrategyResult::uvmAccessesPerGpuIter() const
{
    std::uint64_t total = 0;
    for (const auto &t : traffic)
        total += t.uvmAccesses;
    return traffic.empty() || iterations == 0
        ? 0.0
        : static_cast<double>(total) /
            (static_cast<double>(traffic.size()) * iterations);
}

double
StrategyResult::uvmAccessFraction() const
{
    std::uint64_t hbm = 0, uvm = 0;
    for (const auto &t : traffic) {
        hbm += t.hbmAccesses;
        uvm += t.uvmAccesses;
    }
    return hbm + uvm
        ? static_cast<double>(uvm) / static_cast<double>(hbm + uvm)
        : 0.0;
}

std::uint64_t
StrategyResult::totalUvmRows() const
{
    std::uint64_t rows = 0;
    for (std::size_t j = 0; j < hashSize.size(); ++j)
        rows += hashSize[j] - hbmRows[j];
    return rows;
}

const StrategyResult &
ModelEvaluation::byName(const std::string &name) const
{
    for (const auto &s : strategies)
        if (s.name == name)
            return s;
    fatal("no strategy named '", name, "' in evaluation of ",
          modelName);
}

namespace {

StrategyResult
toStrategyResult(const ModelSpec &model, const ShardingPlan &plan,
                 const ReplayResult &replay)
{
    StrategyResult out;
    out.name = plan.strategy;
    const auto J = model.numFeatures();
    out.gpu.resize(J);
    out.hbmRows.resize(J);
    out.hashSize.resize(J);
    for (std::uint32_t j = 0; j < J; ++j) {
        out.gpu[j] = plan.tables[j].gpu;
        out.hbmRows[j] = plan.tables[j].hbmRows;
        out.hashSize[j] = model.features[j].hashSize;
    }
    out.gpuMeanTime = replay.gpuMeanTime;
    out.meanBottleneckTime = replay.meanBottleneckTime;
    out.traffic = replay.traffic;
    out.iterations = replay.iterations;
    return out;
}

/**
 * Profile every named model from one draw per feature. The draw
 * reads no hash size, and the models may differ in nothing else
 * (RM2 and RM3 are RM1 with rescaled hash sizes, scaleRm1), so each
 * model's profile is the one its own dataset would give.
 */
std::vector<std::vector<EmbProfile>>
profileModels(const ExperimentConfig &cfg,
              const std::vector<ModelSpec> &models)
{
    const auto drawn = [](const FeatureSpec &f) {
        return std::tie(f.kind, f.cardinality, f.hashSalt, f.alpha,
                        f.meanPool, f.poolSigma, f.maxPool,
                        f.coverage);
    };
    std::vector<std::vector<std::uint64_t>> hash_sizes;
    for (const ModelSpec &model : models) {
        std::vector<std::uint64_t> &sizes = hash_sizes.emplace_back();
        for (const FeatureSpec &f : model.features) {
            const std::size_t j = sizes.size();
            fatal_if(j >= models[0].numFeatures() ||
                         drawn(f) != drawn(models[0].features[j]),
                     model.name, " and ", models[0].name,
                     " draw feature ", j, " differently");
            sizes.push_back(f.hashSize);
        }
    }
    return profileHashSizes(
        SyntheticDataset(models[0], cfg.seed), hash_sizes,
        cfg.profileSamples,
        static_cast<std::uint32_t>(
            std::min<std::uint64_t>(4096, cfg.profileSamples)));
}

/** Compute plans for a variant set and replay them on one trace. */
ModelEvaluation
computeEvaluation(const ExperimentConfig &cfg, const ModelSpec &model,
                  const std::string &model_name,
                  const std::vector<EmbProfile> &profiles, bool ablation)
{
    inform("evaluating ", model_name, " at scale ", cfg.scale,
           " on ", cfg.gpus, " GPUs (",
           ablation ? "ablation" : "strategies", ")...");
    const SyntheticDataset data(model, cfg.seed);
    const SystemSpec sys = SystemSpec::paper(cfg.gpus, cfg.scale);

    PlanRequest req =
        PlanRequest::make(model, profiles, sys, cfg.batch);

    std::vector<ShardingPlan> plans;
    if (!ablation) {
        // Every registered strategy that can take a production-
        // scale instance — a new planner registers itself and shows
        // up in every baseline comparison automatically.
        for (const std::string &name : PlannerRegistry::names()) {
            const auto planner = PlannerRegistry::create(name);
            if (!planner->scalable())
                continue;
            PlanResult solved = planner->plan(req);
            fatal_if(!solved.diag.feasible, "planner '", name,
                     "' found no feasible plan for ", model_name);
            plans.push_back(std::move(solved.plan));
        }
    } else {
        struct Variant
        {
            const char *name;
            bool pooling;
            bool coverage;
        };
        const Variant variants[] = {
            {"CDF Only", false, false},
            {"CDF + Coverage", false, true},
            {"CDF + Pooling", true, false},
            {"RecShard (Full)", true, true},
        };
        const auto planner = PlannerRegistry::create("recshard");
        for (const auto &v : variants) {
            req.solver.ablation.usePooling = v.pooling;
            req.solver.ablation.useCoverage = v.coverage;
            ShardingPlan plan = planner->plan(req).plan;
            plan.strategy = v.name;
            plans.push_back(std::move(plan));
        }
    }

    ExecutionEngine engine(data, sys, EmbCostModel(sys));
    std::vector<const ShardingPlan *> plan_ptrs;
    std::vector<std::vector<TierResolver>> resolvers;
    for (const auto &plan : plans) {
        plan_ptrs.push_back(&plan);
        resolvers.push_back(
            ExecutionEngine::buildResolvers(model, plan, profiles));
    }
    ReplayConfig rc;
    rc.batchSize = cfg.batch;
    rc.warmupIterations = cfg.warmup;
    rc.measureIterations = cfg.iters;
    const auto replays = engine.replay(plan_ptrs, resolvers, rc);

    ModelEvaluation eval;
    eval.modelName = model_name;
    for (std::size_t p = 0; p < plans.size(); ++p)
        eval.strategies.push_back(
            toStrategyResult(model, plans[p], replays[p]));
    return eval;
}

} // namespace

std::vector<ModelEvaluation>
evaluateModels(const ExperimentConfig &cfg,
               const std::vector<std::string> &model_names)
{
    fatal_if(model_names.empty(), "no model to evaluate");
    std::vector<ModelSpec> models;
    for (const std::string &name : model_names)
        models.push_back(makeRmByName(name, cfg.scale));
    const auto profiles = profileModels(cfg, models);
    std::vector<ModelEvaluation> evals;
    for (std::size_t m = 0; m < models.size(); ++m)
        evals.push_back(computeEvaluation(cfg, models[m], model_names[m],
                                          profiles[m], false));
    return evals;
}

ModelEvaluation
evaluateAblation(const ExperimentConfig &cfg,
                 const std::string &model_name)
{
    const ModelSpec model = makeRmByName(model_name, cfg.scale);
    return computeEvaluation(cfg, model, model_name,
                             profileModels(cfg, {model})[0], true);
}

namespace paper {

const Table3Row kTable3[12] = {
    {"RM1", "Size-Based", 7.12, 21.23, 13.06, 4.01},
    {"RM1", "Lookup-Based", 5.08, 30.97, 12.99, 5.59},
    {"RM1", "Size-Based-Lookup", 5.55, 26.03, 12.91, 4.72},
    {"RM1", "RecShard", 6.53, 8.21, 7.48, 0.45},
    {"RM2", "Size-Based", 20.52, 49.65, 33.82, 7.37},
    {"RM2", "Lookup-Based", 10.40, 55.85, 32.47, 9.87},
    {"RM2", "Size-Based-Lookup", 7.47, 56.66, 32.95, 10.26},
    {"RM2", "RecShard", 6.52, 9.44, 7.75, 0.78},
    {"RM3", "Size-Based", 40.43, 76.15, 56.45, 10.86},
    {"RM3", "Lookup-Based", 3.37, 73.30, 55.27, 18.53},
    {"RM3", "Size-Based-Lookup", 5.10, 85.01, 56.04, 20.39},
    {"RM3", "RecShard", 6.83, 9.90, 8.31, 0.69},
};

const Table5Row kTable5[12] = {
    {"RM1", "Size-Based", 88.74e6, 0.0},
    {"RM1", "Lookup-Based", 88.74e6, 0.0},
    {"RM1", "Size-Based-Lookup", 88.74e6, 0.0},
    {"RM1", "RecShard", 88.74e6, 0.0},
    {"RM2", "Size-Based", 70.32e6, 18.42e6},
    {"RM2", "Lookup-Based", 70.90e6, 17.84e6},
    {"RM2", "Size-Based-Lookup", 70.90e6, 17.84e6},
    {"RM2", "RecShard", 88.48e6, 0.259e6},
    {"RM3", "Size-Based", 55.82e6, 32.92e6},
    {"RM3", "Lookup-Based", 56.85e6, 31.89e6},
    {"RM3", "Size-Based-Lookup", 56.85e6, 31.89e6},
    {"RM3", "RecShard", 88.29e6, 0.450e6},
};

} // namespace paper

} // namespace recshard
