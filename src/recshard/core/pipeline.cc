#include "recshard/core/pipeline.hh"

#include <chrono>

#include "recshard/base/logging.hh"
#include "recshard/planner/registry.hh"

namespace recshard {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

RecShardPipeline::RecShardPipeline(const SyntheticDataset &data_,
                                   const SystemSpec &system_,
                                   PipelineOptions options)
    : data(data_), sys(system_), opts(options)
{
    sys.validate();
    fatal_if(opts.profileSamples == 0,
             "pipeline needs a non-zero profiling sample");
}

PipelineResult
RecShardPipeline::run() const
{
    using Clock = std::chrono::steady_clock;
    PipelineResult result;

    // Phase 1: training-data profiling (Section 4.1).
    auto t0 = Clock::now();
    result.profiles = profileDataset(data, opts.profileSamples);
    result.profileSeconds = secondsSince(t0);

    // Phase 2: partitioning and placement (Section 4.2) through
    // the registry-selected planner. The authoritative batch size
    // follows the selected path, so "milp" honors milp.batchSize.
    t0 = Clock::now();
    PlanRequest req = PlanRequest::make(
        data.spec(), result.profiles, sys,
        opts.plannerName == "milp" ? opts.milp.batchSize
                                   : opts.solver.batchSize);
    req.solver = opts.solver;
    req.milp = opts.milp;
    PlanResult solved =
        PlannerRegistry::create(opts.plannerName)->plan(req);
    fatal_if(!solved.diag.feasible,
             "planner '", solved.diag.planner,
             "' found no feasible sharding (", solved.diag.notes,
             ")");
    result.plan = std::move(solved.plan);
    result.planDiag = std::move(solved.diag);
    result.solveSeconds = secondsSince(t0);

    // Phase 3: remapping artifacts (Section 4.3).
    t0 = Clock::now();
    result.resolvers = ExecutionEngine::buildResolvers(
        data.spec(), result.plan, result.profiles);
    for (std::size_t j = 0; j < result.plan.tables.size(); ++j) {
        const auto rows = result.plan.tables[j].hbmRows;
        const auto hash_size = data.spec().features[j].hashSize;
        if (rows > 0 && rows < hash_size)
            result.remapStorageBytes += hash_size * 4;
    }
    result.remapSeconds = secondsSince(t0);

    // Phase 4 (optional): the plan under online request load. The
    // pipeline owns the phase-1 profiles, so a "cdf-gated" cache
    // admission policy is wired to them automatically unless the
    // caller supplied CDFs of their own.
    if (opts.evaluateServing) {
        t0 = Clock::now();
        ServingConfig serving = opts.serving;
        if (serving.server.admission.cdfs.empty())
            serving.server.admission.cdfs =
                collectCdfs(result.profiles);
        result.serving = serveTraffic(data, result.plan,
                                      result.resolvers, sys,
                                      serving);
        result.servingSeconds = secondsSince(t0);
    }

    // Phase 5 (optional): a multi-node cluster under routed load
    // with overload control (admission + degraded-mode serving).
    if (opts.evaluateRouting) {
        t0 = Clock::now();
        // Fail fast on a bad overload config — name *and* knobs —
        // before paying for cluster solving (the Router would only
        // re-validate after every node's plan is solved).
        const std::uint32_t nodes = opts.routing.nodeSpecs.empty()
            ? opts.routing.numNodes
            : static_cast<std::uint32_t>(
                  opts.routing.nodeSpecs.size());
        makeAdmissionController(
            opts.routing.router.overload.admission, nodes,
            opts.routing.router.slaSeconds);
        (void)DegradationPolicy(
            opts.routing.router.overload.degradation);
        ClusterPlanOptions cp;
        cp.numNodes = opts.routing.numNodes;
        cp.nodeSpecs = opts.routing.nodeSpecs;
        cp.solver = opts.solver;
        cp.milp = opts.milp;
        const RoutingCluster cluster = buildRoutingCluster(
            data.spec(), result.profiles, sys, cp);
        const RoutedTrace trace = materializeRoutedTrace(
            data, opts.routing.load, opts.routing.numQueries);
        RouterConfig rc = opts.routing.router;
        if (rc.server.admission.cdfs.empty())
            rc.server.admission.cdfs =
                collectCdfs(result.profiles);
        result.routing =
            Router(data.spec(), cluster, rc).route(trace);
        result.routingSeconds = secondsSince(t0);
    }

    // Phase 6 (optional): the same cluster shape under a drifting
    // trace with the replanning feedback loop closed (replan/).
    if (opts.evaluateReplanning) {
        t0 = Clock::now();
        ClusterPlanOptions cp;
        cp.numNodes = opts.replanning.numNodes;
        cp.nodeSpecs = opts.replanning.nodeSpecs;
        cp.solver = opts.solver;
        cp.milp = opts.milp;
        const RoutingCluster cluster = buildRoutingCluster(
            data.spec(), result.profiles, sys, cp);
        // The pipeline's dataset is shared and const; the drifting
        // trace sweeps months on a copy (cheap: spec + seed).
        SyntheticDataset drifting = data;
        const RoutedTrace trace = materializeDriftingRoutedTrace(
            drifting, opts.replanning.load,
            opts.replanning.numQueries, opts.replanning.schedule);
        ReplanConfig rc = opts.replanning.replan;
        if (rc.server.admission.cdfs.empty())
            rc.server.admission.cdfs =
                collectCdfs(result.profiles);
        result.replan = LiveReplanServer(data.spec(), cluster, rc)
                            .serve(trace);
        result.replanSeconds = secondsSince(t0);
    }
    return result;
}

ReshardAssessment
assessReshard(const ModelSpec &model,
              const std::vector<EmbProfile> &fresh_profiles,
              const SystemSpec &system, const ShardingPlan &incumbent,
              const std::vector<TierResolver> &incumbent_resolvers,
              const RecShardOptions &solver_options,
              const std::string &planner_name)
{
    ReshardAssessment out;
    out.incumbentCost = estimatePlanBottleneck(
        model, fresh_profiles, system, incumbent,
        solver_options.batchSize, &incumbent_resolvers);
    PlanRequest req = PlanRequest::make(model, fresh_profiles,
                                        system,
                                        solver_options.batchSize);
    req.solver = solver_options;
    PlanResult fresh = PlannerRegistry::create(planner_name)
                           ->plan(req);
    fatal_if(!fresh.diag.feasible,
             "planner '", planner_name,
             "' found no feasible fresh plan");
    out.freshPlan = std::move(fresh.plan);
    out.freshCost = estimatePlanBottleneck(
        model, fresh_profiles, system, out.freshPlan,
        solver_options.batchSize);
    out.speedup = out.freshCost > 0.0
        ? out.incumbentCost / out.freshCost : 1.0;
    return out;
}

} // namespace recshard
