#include "recshard/planner/strategies.hh"

#include <memory>
#include <sstream>

#include "recshard/planner/lp_rounding.hh"
#include "recshard/planner/registry.hh"
#include "recshard/sharding/baselines.hh"

namespace recshard {

namespace {

/** "recshard": the production-scale solver (local search + splits). */
class RecShardPlanner : public Planner
{
  public:
    const char *name() const override { return "recshard"; }

  protected:
    ShardingPlan solve(const PlanRequest &req,
                       PlanDiagnostics &diag) const override
    {
        RecShardOptions opts = req.solver;
        opts.batchSize = req.batchSize;
        RecShardStats stats;
        ShardingPlan plan = recShardPlan(*req.model, *req.profiles,
                                         req.system, opts, &stats);
        diag.refinementSteps = stats.moves + stats.swaps;
        std::ostringstream os;
        os << "local search: " << stats.moves << " moves, "
           << stats.swaps << " swaps";
        diag.notes = os.str();
        return plan;
    }
};

/** "milp": the exact formulation; refuses big instances. */
class MilpPlanner : public Planner
{
  public:
    const char *name() const override { return "milp"; }
    bool scalable() const override { return false; }

  protected:
    ShardingPlan solve(const PlanRequest &req,
                       PlanDiagnostics &diag) const override
    {
        MilpShardOptions opts = req.milp;
        opts.batchSize = req.batchSize;
        const MilpShardResult res = milpShardPlan(
            *req.model, *req.profiles, req.system, opts);
        diag.feasible = res.feasible;
        diag.exact = res.milp.provenOptimal;
        diag.refinementSteps = res.milp.nodesExplored;
        std::ostringstream os;
        if (!res.feasible) {
            // No incumbent: the objective is meaningless (the solver
            // leaves it at its sentinel), so report only the root
            // status — Infeasible means proven unsat, IterLimit
            // means the search hit its node/time limits first.
            os << "milp root " << lpStatusName(res.milp.status)
               << " over " << res.numBinaries
               << " binaries - no incumbent";
        } else {
            os << "objective " << res.milp.objective << " over "
               << res.numBinaries << " binaries ("
               << lpStatusName(res.milp.status) << ")";
        }
        diag.notes = os.str();
        return res.plan;
    }
};

/** "greedy-*": whole-table production baselines. */
class GreedyPlanner : public Planner
{
  public:
    GreedyPlanner(const char *registry_name, BaselineCost kind)
        : registryName(registry_name), kind(kind)
    {
    }

    const char *name() const override { return registryName; }

  protected:
    ShardingPlan solve(const PlanRequest &req,
                       PlanDiagnostics &diag) const override
    {
        diag.notes = std::string("whole-table greedy, ") +
            baselineCostName(kind) + " cost";
        return greedyShard(kind, *req.model, *req.profiles,
                           req.system);
    }

  private:
    const char *registryName;
    BaselineCost kind;
};

} // namespace

std::vector<std::pair<std::string, PlannerRegistry::Factory>>
builtinPlanners()
{
    // This order is the registry's iteration order; keep the
    // paper's presentation order (baselines, then RecShard).
    return {
        {"greedy-size",
         [] {
             return std::make_unique<GreedyPlanner>(
                 "greedy-size", BaselineCost::Size);
         }},
        {"greedy-lookup",
         [] {
             return std::make_unique<GreedyPlanner>(
                 "greedy-lookup", BaselineCost::Lookup);
         }},
        {"greedy-size-lookup",
         [] {
             return std::make_unique<GreedyPlanner>(
                 "greedy-size-lookup", BaselineCost::SizeLookup);
         }},
        {"recshard",
         [] { return std::make_unique<RecShardPlanner>(); }},
        {"milp", [] { return std::make_unique<MilpPlanner>(); }},
        {"lp-rounding",
         [] { return std::make_unique<LpRoundingPlanner>(); }},
    };
}

} // namespace recshard
