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
