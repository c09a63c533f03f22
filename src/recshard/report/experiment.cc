#include "recshard/report/experiment.hh"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "recshard/base/logging.hh"
#include "recshard/core/pipeline.hh"
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

/** Model, data stream, system, and profiles one config implies. */
struct PreparedModel
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec sys;
    std::vector<EmbProfile> profiles;
};

PreparedModel
prepareModel(const ExperimentConfig &cfg,
             const std::string &model_name)
{
    ModelSpec model = makeRmByName(model_name, cfg.scale);
    SyntheticDataset data(model, cfg.seed);
    PreparedModel p{std::move(model), std::move(data),
                    SystemSpec::paper(cfg.gpus, cfg.scale), {}};
    p.profiles = profileDataset(
        p.data, cfg.profileSamples,
        std::min<std::uint32_t>(4096, static_cast<std::uint32_t>(
            cfg.profileSamples)));
    return p;
}

/** Per-plan resolver vectors, in plan order. */
std::vector<std::vector<TierResolver>>
resolveAll(const PreparedModel &p,
           const std::vector<ShardingPlan> &plans)
{
    std::vector<std::vector<TierResolver>> resolvers;
    resolvers.reserve(plans.size());
    for (const auto &plan : plans)
        resolvers.push_back(ExecutionEngine::buildResolvers(
            p.model, plan, p.profiles));
    return resolvers;
}

/** Compute plans for a variant set and replay them on one trace. */
ModelEvaluation
computeEvaluation(const ExperimentConfig &cfg,
                  const std::string &model_name, bool ablation)
{
    inform("evaluating ", model_name, " at scale ", cfg.scale,
           " on ", cfg.gpus, " GPUs (",
           ablation ? "ablation" : "strategies", ")...");
    const PreparedModel prep = prepareModel(cfg, model_name);
    const ModelSpec &model = prep.model;
    const SyntheticDataset &data = prep.data;
    const SystemSpec &sys = prep.sys;
    const auto &profiles = prep.profiles;

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
    for (const auto &plan : plans)
        plan_ptrs.push_back(&plan);
    const auto resolvers = resolveAll(prep, plans);
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

const ServingReport &
ServingEvaluation::byName(const std::string &name) const
{
    for (const auto &s : strategies)
        if (s.strategy == name)
            return s;
    fatal("no strategy named '", name, "' in serving evaluation of ",
          modelName);
}

ServingEvaluation
evaluateServing(const ExperimentConfig &cfg,
                const std::string &model_name,
                const ServingConfig &serving)
{
    inform("serving ", model_name, " at scale ", cfg.scale, " on ",
           cfg.gpus, " GPUs at ", serving.load.qps, " QPS...");
    const PreparedModel prep = prepareModel(cfg, model_name);

    const PlanRequest req = PlanRequest::make(
        prep.model, prep.profiles, prep.sys, cfg.batch);
    std::vector<ShardingPlan> plans;
    for (const char *name : {"greedy-size", "recshard"})
        plans.push_back(
            PlannerRegistry::create(name)->plan(req).plan);

    std::vector<const ShardingPlan *> plan_ptrs;
    for (const auto &plan : plans)
        plan_ptrs.push_back(&plan);

    // "cdf-gated" cache admission consumes the harness's own
    // profiles; honor caller-supplied CDFs if present.
    ServingConfig scfg = serving;
    if (scfg.server.admission.cdfs.empty())
        scfg.server.admission.cdfs = collectCdfs(prep.profiles);

    ServingEvaluation eval;
    eval.modelName = model_name;
    eval.strategies = serveTrafficComparison(
        prep.data, plan_ptrs, resolveAll(prep, plans), prep.sys,
        scfg);
    return eval;
}

const RoutingReport &
RoutingEvaluation::byName(const std::string &name) const
{
    for (const auto &r : policies)
        if (r.name == name)
            return r;
    fatal("no routing report named '", name,
          "' in routing evaluation of ", modelName);
}

RoutingEvaluation
evaluateRouting(const ExperimentConfig &cfg,
                const std::string &model_name,
                const RoutingPhaseOptions &routing)
{
    const std::size_t nodes = routing.nodeSpecs.empty()
        ? routing.numNodes : routing.nodeSpecs.size();
    inform("routing ", model_name, " at scale ", cfg.scale,
           " across ", nodes,
           routing.nodeSpecs.empty()
               ? " nodes of " + std::to_string(cfg.gpus) + " GPUs"
               : " heterogeneous nodes",
           " at ", routing.load.qps, " QPS...");
    const PreparedModel prep = prepareModel(cfg, model_name);

    ClusterPlanOptions cp;
    cp.numNodes = routing.numNodes;
    cp.nodeSpecs = routing.nodeSpecs;
    cp.plannerName = routing.plannerName;
    cp.solver.batchSize = cfg.batch;
    const RoutingCluster cluster = buildRoutingCluster(
        prep.model, prep.profiles, prep.sys, cp);
    const RoutedTrace trace = materializeRoutedTrace(
        prep.data, routing.load, routing.numQueries);

    // Six combinations on one trace: policies without hedging,
    // then the same policies with it.
    std::vector<RouterConfig> configs;
    for (const bool hedging : {false, true}) {
        for (const RoutingPolicy policy : allRoutingPolicies()) {
            RouterConfig rc = routing.router;
            rc.policy = policy;
            rc.hedge.enabled = hedging;
            if (rc.server.admission.cdfs.empty())
                rc.server.admission.cdfs =
                    collectCdfs(prep.profiles);
            configs.push_back(rc);
        }
    }

    RoutingEvaluation eval;
    eval.modelName = model_name;
    eval.nodePlans = cluster.planSet.plans;
    eval.policies = routeTrafficComparison(prep.model, cluster,
                                           configs, trace);
    return eval;
}

const RoutingReport &
OverloadEvaluation::at(const std::string &mode,
                       double multiplier) const
{
    for (std::size_t m = 0; m < modes.size(); ++m) {
        if (modes[m] != mode)
            continue;
        for (std::size_t l = 0; l < loadMultipliers.size(); ++l)
            // Tolerant match: callers may recompute the multiplier
            // (base * 1.5 and the stored literal differ in ULPs).
            if (std::abs(loadMultipliers[l] - multiplier) < 1e-9)
                return reports[m][l];
    }
    fatal("no overload report for mode '", mode, "' at ",
          multiplier, "x saturation");
}

OverloadEvaluation
evaluateOverload(const ExperimentConfig &cfg,
                 const std::string &model_name,
                 const RoutingPhaseOptions &routing,
                 const std::vector<double> &load_multipliers)
{
    fatal_if(load_multipliers.empty(),
             "no load multipliers to evaluate");
    const std::size_t nodes = routing.nodeSpecs.empty()
        ? routing.numNodes : routing.nodeSpecs.size();
    inform("overload-controlling ", model_name, " at scale ",
           cfg.scale, " across ", nodes, " nodes...");
    const PreparedModel prep = prepareModel(cfg, model_name);

    ClusterPlanOptions cp;
    cp.numNodes = routing.numNodes;
    cp.nodeSpecs = routing.nodeSpecs;
    cp.plannerName = routing.plannerName;
    cp.solver.batchSize = cfg.batch;
    const RoutingCluster cluster = buildRoutingCluster(
        prep.model, prep.profiles, prep.sys, cp);

    RouterConfig base = routing.router;
    if (base.server.admission.cdfs.empty())
        base.server.admission.cdfs = collectCdfs(prep.profiles);

    // Saturation probe: the configured load's trace, served once
    // without admission or hedging, fixes the rate that "1.0x"
    // means.
    OverloadEvaluation eval;
    eval.modelName = model_name;
    eval.loadMultipliers = load_multipliers;
    {
        const RoutedTrace sample = materializeRoutedTrace(
            prep.data, routing.load, routing.numQueries);
        eval.saturationQps = estimateSaturationQps(
            prep.model, cluster, base, sample);
    }
    eval.meanServiceSeconds =
        static_cast<double>(cluster.numNodes()) /
        eval.saturationQps;

    // Reject and degrade share one controller: the configured one,
    // or queue-threshold (the simplest real policy) when the
    // routing config left admission off. An unset bound (the 0
    // default) is SLA-derived; an explicitly pinned bound is
    // honored.
    AdmissionConfig controlled = base.overload.admission;
    if (controlled.policy == "admit-all")
        controlled.policy = "queue-threshold";
    if (controlled.policy == "queue-threshold" &&
        controlled.maxOutstanding == 0)
        controlled.maxOutstanding = deriveQueueBound(
            base.slaSeconds, eval.meanServiceSeconds);

    eval.modes = {"admit-all", "reject", "degrade"};
    std::vector<RouterConfig> mode_configs(3, base);
    mode_configs[0].overload = OverloadConfig{};
    mode_configs[1].overload.admission = controlled;
    mode_configs[1].overload.degradation.enabled = false;
    mode_configs[2].overload.admission = controlled;
    mode_configs[2].overload.degradation.enabled = true;
    // Arm the brownout->blackout backstop unless the caller pinned
    // one: a burst beyond the deepest tier's capacity must shed,
    // or the comparison's degrade column measures queue collapse.
    // Derived just past the caller's own deepest tier threshold so
    // any valid tier ladder stays fully reachable.
    DegradationConfig &dg = mode_configs[2].overload.degradation;
    if (dg.shedPressure == 0.0)
        dg.shedPressure = std::max(
            3.0, dg.tierPressure.empty()
                     ? 3.0 : dg.tierPressure.back() + 0.5);

    eval.reports.assign(3, {});
    for (const double mult : load_multipliers) {
        LoadConfig load = routing.load;
        load.qps = mult * eval.saturationQps;
        // One trace per multiplier, shared by all three modes, so
        // differences are attributable to overload control alone.
        const RoutedTrace trace = materializeRoutedTrace(
            prep.data, load, routing.numQueries);
        for (std::size_t m = 0; m < 3; ++m)
            eval.reports[m].push_back(
                Router(prep.model, cluster, mode_configs[m])
                    .route(trace));
    }
    return eval;
}

ReplanEvaluation
evaluateReplan(const ExperimentConfig &cfg,
               const std::string &model_name,
               const ReplanPhaseOptions &options,
               const DriftModel &drift, double load_fraction)
{
    fatal_if(load_fraction <= 0.0,
             "replan load fraction must be positive");
    const std::size_t nodes = options.nodeSpecs.empty()
        ? options.numNodes : options.nodeSpecs.size();
    inform("replanning ", model_name, " at scale ", cfg.scale,
           " across ", nodes, " nodes over ",
           options.schedule.months, " months...");
    const PreparedModel prep = prepareModel(cfg, model_name);

    ClusterPlanOptions cp;
    cp.numNodes = options.numNodes;
    cp.nodeSpecs = options.nodeSpecs;
    cp.plannerName = options.plannerName;
    cp.solver.batchSize = cfg.batch;
    const RoutingCluster cluster = buildRoutingCluster(
        prep.model, prep.profiles, prep.sys, cp);

    ReplanConfig rc = options.replan;
    if (rc.server.admission.cdfs.empty())
        rc.server.admission.cdfs = collectCdfs(prep.profiles);

    ReplanEvaluation eval;
    eval.modelName = model_name;

    // Saturation probe on the *planning-time* distribution — the
    // reference both runs' load is expressed against.
    {
        RouterConfig probe;
        probe.policy = rc.policy;
        probe.server = rc.server;
        probe.slaSeconds = rc.slaSeconds;
        probe.localityLoadPenalty = rc.localityLoadPenalty;
        const RoutedTrace sample = materializeRoutedTrace(
            prep.data, options.load, options.numQueries);
        eval.saturationQps = estimateSaturationQps(
            prep.model, cluster, probe, sample);
    }

    // One drifting trace, shared by both runs: month advances
    // across the stream, so the hot rows the incumbent plans pinned
    // gradually stop being the hot rows the queries touch.
    LoadConfig load = options.load;
    load.qps = load_fraction * eval.saturationQps;
    eval.offeredQps = load.qps;
    SyntheticDataset drifting = prep.data;
    drifting.setDrift(drift);
    const RoutedTrace trace = materializeDriftingRoutedTrace(
        drifting, load, options.numQueries, options.schedule);

    ReplanConfig static_rc = rc;
    static_rc.replanEnabled = false;
    eval.staticPlan =
        LiveReplanServer(prep.model, cluster, static_rc)
            .serve(trace);
    ReplanConfig live_rc = rc;
    live_rc.replanEnabled = true;
    eval.liveReplan =
        LiveReplanServer(prep.model, cluster, live_rc)
            .serve(trace);
    return eval;
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
