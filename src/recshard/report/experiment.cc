#include "recshard/report/experiment.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

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
    flags.addString("cache-dir", "recshard-bench-cache",
                    "evaluation memoization directory");
    flags.addBool("no-cache", "recompute instead of reading cache");
}

ExperimentConfig
ExperimentConfig::fromFlags(const FlagSet &flags)
{
    ExperimentConfig cfg;
    cfg.scale = flags.getDouble("scale");
    cfg.gpus = static_cast<std::uint32_t>(flags.getInt("gpus"));
    cfg.batch = static_cast<std::uint32_t>(flags.getInt("batch"));
    cfg.warmup = static_cast<std::uint32_t>(flags.getInt("warmup"));
    cfg.iters = static_cast<std::uint32_t>(flags.getInt("iters"));
    cfg.seed = static_cast<std::uint64_t>(flags.getInt("seed"));
    cfg.profileSamples = static_cast<std::uint64_t>(
        flags.getInt("profile-samples"));
    cfg.cacheDir = flags.getString("cache-dir");
    cfg.noCache = flags.getBool("no-cache");
    return cfg;
}

std::string
ExperimentConfig::cacheKey(const std::string &model_name,
                           const std::string &variant) const
{
    std::ostringstream os;
    os << model_name << "-" << variant << "-s" << scale << "-g"
       << gpus << "-b" << batch << "-w" << warmup << "-i" << iters
       << "-r" << seed << "-p" << profileSamples << "-v7";
    // The strategy set is part of the result's identity: binaries
    // with different externally registered planners must not
    // overwrite each other's entries.
    for (const std::string &name : PlannerRegistry::names())
        if (PlannerRegistry::create(name)->scalable())
            os << "+" << name;
    return os.str();
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

// ------------------------------------------------ cache plumbing

void
writeResult(std::ostream &os, const StrategyResult &s)
{
    os << "strategy " << s.name << "\n";
    os << "iters " << s.iterations << " bottleneck "
       << s.meanBottleneckTime << "\n";
    os << "tables " << s.gpu.size() << "\n";
    for (std::size_t j = 0; j < s.gpu.size(); ++j)
        os << s.gpu[j] << " " << s.hbmRows[j] << " " << s.hashSize[j]
           << "\n";
    os << "gpus " << s.gpuMeanTime.size() << "\n";
    for (std::size_t m = 0; m < s.gpuMeanTime.size(); ++m) {
        os << s.gpuMeanTime[m] << " " << s.traffic[m].hbmAccesses
           << " " << s.traffic[m].uvmAccesses << " "
           << s.traffic[m].hbmBytes << " " << s.traffic[m].uvmBytes
           << "\n";
    }
}

bool
readResult(std::istream &is, StrategyResult &s)
{
    std::string tag;
    if (!(is >> tag) || tag != "strategy")
        return false;
    is >> s.name;
    std::size_t tables = 0, gpus = 0;
    is >> tag >> s.iterations >> tag >> s.meanBottleneckTime;
    is >> tag >> tables;
    s.gpu.resize(tables);
    s.hbmRows.resize(tables);
    s.hashSize.resize(tables);
    for (std::size_t j = 0; j < tables; ++j)
        is >> s.gpu[j] >> s.hbmRows[j] >> s.hashSize[j];
    is >> tag >> gpus;
    s.gpuMeanTime.resize(gpus);
    s.traffic.resize(gpus);
    for (std::size_t m = 0; m < gpus; ++m) {
        is >> s.gpuMeanTime[m] >> s.traffic[m].hbmAccesses >>
            s.traffic[m].uvmAccesses >> s.traffic[m].hbmBytes >>
            s.traffic[m].uvmBytes;
    }
    return static_cast<bool>(is);
}

bool
loadEvaluation(const std::string &path, ModelEvaluation &eval,
               std::size_t expected)
{
    std::ifstream in(path);
    if (!in)
        return false;
    eval.strategies.clear();
    StrategyResult s;
    while (readResult(in, s))
        eval.strategies.push_back(s);
    return eval.strategies.size() == expected;
}

void
storeEvaluation(const std::string &dir, const std::string &key,
                const ModelEvaluation &eval)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create cache dir '", dir, "': ", ec.message());
        return;
    }
    std::ofstream out(dir + "/" + key + ".txt");
    if (!out) {
        warn("cannot write cache entry '", key, "'");
        return;
    }
    out.precision(17);
    for (const auto &s : eval.strategies)
        writeResult(out, s);
}

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

/** Compute plans for a variant set and replay them on one trace. */
ModelEvaluation
computeEvaluation(const ExperimentConfig &cfg,
                  const std::string &model_name, bool ablation)
{
    inform("evaluating ", model_name, " at scale ", cfg.scale,
           " on ", cfg.gpus, " GPUs (",
           ablation ? "ablation" : "strategies", ")...");
    const ModelSpec model = makeRmByName(model_name, cfg.scale);
    const SyntheticDataset data(model, cfg.seed);
    const SystemSpec sys = SystemSpec::paper(cfg.gpus, cfg.scale);
    const auto profiles = profileDataset(
        data, cfg.profileSamples,
        std::min<std::uint32_t>(4096, static_cast<std::uint32_t>(
            cfg.profileSamples)));

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

/** Strategies evaluateModel covers: every scalable planner. */
std::size_t
scalablePlannerCount()
{
    std::size_t count = 0;
    for (const std::string &name : PlannerRegistry::names())
        count += PlannerRegistry::create(name)->scalable() ? 1 : 0;
    return count;
}

} // namespace

ModelEvaluation
evaluateModel(const ExperimentConfig &cfg,
              const std::string &model_name)
{
    const std::string key = cfg.cacheKey(model_name, "strategies");
    const std::string path = cfg.cacheDir + "/" + key + ".txt";
    ModelEvaluation eval;
    eval.modelName = model_name;
    if (!cfg.noCache &&
        loadEvaluation(path, eval, scalablePlannerCount())) {
        inform("loaded cached evaluation ", key);
        return eval;
    }
    eval = computeEvaluation(cfg, model_name, false);
    if (!cfg.noCache)
        storeEvaluation(cfg.cacheDir, key, eval);
    return eval;
}

ModelEvaluation
evaluateAblation(const ExperimentConfig &cfg,
                 const std::string &model_name)
{
    // Not memoized: the variant names contain spaces, which the
    // cache's whitespace-separated entries cannot round-trip.
    return computeEvaluation(cfg, model_name, true);
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
