#include "recshard/planner/planner.hh"

#include <algorithm>
#include <chrono>

#include "recshard/base/logging.hh"
#include "recshard/base/units.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/tiering/tier_plan.hh"

namespace recshard {

PlanRequest
PlanRequest::make(const ModelSpec &model,
                  const std::vector<EmbProfile> &profiles,
                  const SystemSpec &system, std::uint32_t batch_size)
{
    PlanRequest req;
    req.model = &model;
    req.profiles = &profiles;
    req.system = system;
    req.batchSize = batch_size;
    return req;
}

void
PlanRequest::validate() const
{
    fatal_if(model == nullptr, "PlanRequest has no model");
    fatal_if(profiles == nullptr, "PlanRequest has no profiles");
    fatal_if(profiles->size() != model->features.size(),
             "PlanRequest profiles (", profiles->size(),
             ") != model tables (", model->features.size(), ")");
    fatal_if(batchSize == 0, "PlanRequest batch size cannot be 0");
    system.validate();
}

namespace {

/** Per-tier shares of the profiled accesses by resolved tier. */
std::vector<double>
resolvedTierShares(const TierResolver &resolver,
                   const FrequencyCdf &cdf, std::size_t num_tiers)
{
    std::vector<double> shares(num_tiers, 0.0);
    if (cdf.totalAccesses() == 0) {
        shares[0] = 1.0;
        return shares;
    }
    std::vector<std::uint64_t> counts(num_tiers, 0);
    const auto &ranked = cdf.rankedRows();
    for (std::uint64_t r = 0; r < ranked.size(); ++r) {
        const std::uint8_t tier = resolver.tierOf(ranked[r]);
        fatal_if(tier >= num_tiers, "resolver tier ",
                 static_cast<unsigned>(tier),
                 " outside a ", num_tiers, "-tier system");
        counts[tier] += cdf.countAtRank(r);
    }
    for (std::size_t i = 0; i < num_tiers; ++i)
        shares[i] = static_cast<double>(counts[i]) /
            static_cast<double>(cdf.totalAccesses());
    return shares;
}

} // namespace

double
estimatePlanBottleneck(const ModelSpec &model,
                       const std::vector<EmbProfile> &profiles,
                       const SystemSpec &system,
                       const ShardingPlan &plan, std::uint32_t batch,
                       const std::vector<TierResolver> *resolvers)
{
    fatal_if(plan.tables.size() != model.features.size(),
             "plan/model mismatch");
    fatal_if(profiles.size() != model.features.size(),
             "profiles/model mismatch");
    fatal_if(resolvers && resolvers->size() != model.features.size(),
             "resolvers/model mismatch");
    const EmbCostModel cost(system);
    std::vector<double> gpu_cost(system.numGpus, 0.0);
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const auto &p = profiles[j];
        const auto &t = plan.tables[j];
        const std::vector<double> shares = resolvers
            ? resolvedTierShares((*resolvers)[j], p.cdf,
                                 cost.numTiers())
            : tierAccessShares(t, p.cdf, cost.numTiers());
        gpu_cost[t.gpu] += p.coverage *
            (t.tiered()
                 ? cost.estimatedEmbCostTiered(model.features[j],
                                               p.avgPool, shares,
                                               batch)
                 : cost.estimatedEmbCost(model.features[j],
                                         p.avgPool, shares[0],
                                         batch));
    }
    return *std::max_element(gpu_cost.begin(), gpu_cost.end());
}

PlanResult
Planner::plan(const PlanRequest &request) const
{
    request.validate();

    PlanResult out;
    out.diag.planner = name();
    // Strategies solve the paper's two-tier problem; an N-tier
    // system is collapsed to its projection for the solve and the
    // resulting HBM split is then spread across the real cold tiers
    // (Section 4.4). This N-tier-enables every registered strategy,
    // including external ones, in one place.
    const bool tiered = request.system.numTiers() > 2;
    PlanRequest solve_request = request;
    if (tiered)
        solve_request.system = twoTierProjection(request.system);
    // lint:allow(no-wallclock): solve-time diagnostic only; never reaches the plan
    const auto t0 = std::chrono::steady_clock::now();
    out.plan = solve(solve_request, out.diag);
    if (tiered && out.diag.feasible)
        extendPlanToTiers(*request.model, *request.profiles,
                          request.system, out.plan);
    out.diag.solveSeconds = std::chrono::duration<double>(
                                // lint:allow(no-wallclock): solve-time diagnostic only
                                std::chrono::steady_clock::now() - t0)
                                .count();
    if (out.diag.feasible) {
        out.plan.validate(*request.model, request.system);
        out.diag.bottleneckCost = estimatePlanBottleneck(
            *request.model, *request.profiles, request.system,
            out.plan, request.batchSize);
        // Concurrent-read (Combine::Max) bound for the diagnostics:
        // how fast this plan could go if all tiers streamed at once.
        const double max_combine = maxCombineBottleneck(
            *request.model, *request.profiles, request.system,
            out.plan, request.batchSize);
        if (!out.diag.notes.empty())
            out.diag.notes += "; ";
        out.diag.notes += "max-combine bottleneck " +
            formatSeconds(max_combine);
    }
    return out;
}

} // namespace recshard
