#include "recshard/planner/lp_rounding.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/random.hh"
#include "recshard/lp/simplex.hh"
#include "recshard/sharding/milp_formulation.hh"
#include "recshard/sharding/split_walk.hh"

namespace recshard {

namespace {

/** One rounded-and-repaired plan with its uniform cost. */
struct Candidate
{
    bool feasible = false;
    double cost = 0.0;
    ShardingPlan plan;
};

std::vector<std::vector<std::uint32_t>>
membersOf(const std::vector<std::uint32_t> &gpu_of, std::uint32_t M)
{
    std::vector<std::vector<std::uint32_t>> members(M);
    for (std::uint32_t j = 0; j < gpu_of.size(); ++j)
        members[gpu_of[j]].push_back(j);
    return members;
}

/**
 * Repair a GPU assignment to a feasible pin set: per-GPU concave
 * split under the real budgets, then move the largest table off any
 * still-infeasible GPU to the emptiest one (the scalable solver's
 * own repair rule). The candidate cost is the *uniform* bottleneck
 * estimate, so trial selection uses the same yardstick every
 * strategy is graded by.
 */
Candidate
buildCandidate(const PlanRequest &req,
               const std::vector<EmbShardInput> &inputs,
               SplitWalker &walker,
               std::vector<std::vector<std::uint32_t>> members)
{
    const std::uint32_t M = req.system.numGpus;
    const auto J = static_cast<std::uint32_t>(inputs.size());
    Candidate out;

    std::vector<GpuBudgetSplit> splits(M);
    auto resplit = [&](std::uint32_t m) {
        splits[m] = walker.split(members[m],
                                 walker.walkList(members[m]),
                                 req.system.hbm.capacityBytes,
                                 req.system.uvm.capacityBytes);
    };
    for (std::uint32_t m = 0; m < M; ++m)
        resplit(m);

    for (std::uint32_t guard = 0;; ++guard) {
        int bad = -1;
        for (std::uint32_t m = 0; m < M; ++m)
            if (!splits[m].feasible)
                bad = static_cast<int>(m);
        if (bad < 0)
            break;
        if (guard > J || M < 2)
            return out; // unrepairable sample
        auto &mem = members[static_cast<std::size_t>(bad)];
        if (mem.empty())
            return out;
        std::size_t big = 0;
        for (std::size_t k = 1; k < mem.size(); ++k)
            if (inputs[mem[k]].tableBytes >
                inputs[mem[big]].tableBytes)
                big = k;
        const std::uint32_t j = mem[big];
        mem.erase(mem.begin() + static_cast<std::ptrdiff_t>(big));
        std::uint32_t to = bad == 0 ? 1 : 0;
        std::uint64_t best_free = 0;
        for (std::uint32_t m = 0; m < M; ++m) {
            if (static_cast<int>(m) == bad)
                continue;
            std::uint64_t used = 0;
            for (const auto k : members[m])
                used += inputs[k].tableBytes;
            const std::uint64_t cap =
                req.system.hbm.capacityBytes +
                req.system.uvm.capacityBytes;
            const std::uint64_t free_bytes =
                cap > used ? cap - used : 0;
            if (free_bytes >= best_free) {
                best_free = free_bytes;
                to = m;
            }
        }
        members[to].push_back(j);
        resplit(static_cast<std::uint32_t>(bad));
        resplit(to);
    }

    out.plan.strategy = "LP-Rounding";
    out.plan.tables.resize(J);
    for (std::uint32_t m = 0; m < M; ++m) {
        for (std::size_t k = 0; k < members[m].size(); ++k) {
            const std::uint32_t j = members[m][k];
            EmbPlacement &t = out.plan.tables[j];
            t.gpu = m;
            t.hbmRows = splits[m].hbmRows[k];
            t.hbmAccessFraction =
                (*req.profiles)[j].cdf.accessFraction(t.hbmRows);
        }
    }
    out.cost = estimatePlanBottleneck(*req.model, *req.profiles,
                                      req.system, out.plan,
                                      req.batchSize);
    out.feasible = true;
    return out;
}

} // namespace

ShardingPlan
LpRoundingPlanner::solve(const PlanRequest &req,
                         PlanDiagnostics &diag) const
{
    const EmbCostModel cost_model(req.system, req.solver.combine);
    const auto inputs = buildShardInputs(*req.model, *req.profiles,
                                         req.solver.icdfSteps,
                                         req.solver.ablation);
    SplitWalker walker(inputs, cost_model, req.batchSize);
    const auto J = static_cast<std::uint32_t>(inputs.size());
    const std::uint32_t M = req.system.numGpus;
    const std::uint32_t R =
        std::max<std::uint32_t>(1, req.rounding.trials);
    Rng rng(req.seed);
    std::ostringstream note;

    // ---- The relaxation ------------------------------------------
    // The true LP relaxation of the MILP, whose fractional p_mj
    // become per-table sampling distributions. buildShardMilp()
    // fatal()s past milp.maxBinaries, so this strategy refuses
    // production-scale instances exactly as "milp" does.
    MilpShardOptions mopts = req.milp;
    mopts.batchSize = req.batchSize;
    const ShardMilpModel fm =
        buildShardMilp(*req.model, *req.profiles, req.system, mopts);
    const LpSolution sol = SimplexSolver(fm.lp).solve();
    if (sol.status != LpStatus::Optimal) {
        // No relaxation, nothing to round: report only the status.
        diag.feasible = false;
        diag.notes = std::string("lp relaxation ") +
            lpStatusName(sol.status) + " - nothing to round";
        return {};
    }
    note << "lp relaxation bound " << sol.objective * fm.costUnit
         << " s; ";
    std::vector<std::vector<double>> assign_prob(
        J, std::vector<double>(M, 0.0));
    for (std::uint32_t j = 0; j < J; ++j)
        for (std::uint32_t m = 0; m < M; ++m)
            assign_prob[j][m] = std::max(
                0.0, sol.values[static_cast<std::size_t>(fm.vP[m][j])]);

    // ---- Round, repair, keep the best ----------------------------
    Candidate best;
    std::uint32_t best_trial = 0;
    for (std::uint32_t t = 0; t < R; ++t) {
        Rng trial_rng = rng.fork(t);
        std::vector<std::uint32_t> gpu_of(J, 0);
        for (std::uint32_t j = 0; j < J; ++j) {
            const auto &p = assign_prob[j];
            std::uint32_t arg = 0;
            double total = 0.0;
            for (std::uint32_t m = 0; m < M; ++m) {
                total += p[m];
                if (p[m] > p[arg])
                    arg = m;
            }
            // Trial 0 is the deterministic argmax rounding.
            if (t == 0 || total <= 0.0) {
                gpu_of[j] = arg;
                continue;
            }
            double r = trial_rng.nextDouble() * total;
            gpu_of[j] = arg;
            for (std::uint32_t m = 0; m < M; ++m) {
                r -= p[m];
                if (r <= 0.0) {
                    gpu_of[j] = m;
                    break;
                }
            }
        }
        Candidate cand = buildCandidate(req, inputs, walker,
                                        membersOf(gpu_of, M));
        if (cand.feasible &&
            (!best.feasible || cand.cost < best.cost)) {
            best = std::move(cand);
            best_trial = t;
        }
    }

    if (!best.feasible) {
        diag.feasible = false;
        diag.notes =
            "no rounding trial repaired to a feasible pin set";
        return {};
    }

    // ---- Polish --------------------------------------------------
    // First-improvement hill climb on single-table GPU moves, judged
    // by the same uniform estimator. Rounding samples the LP's
    // assignment *basin*; this walks to that basin's floor, which is
    // what closes the last couple of percent to the MILP optimum.
    std::uint64_t climbs = 0;
    std::vector<std::uint32_t> gpu_of(J);
    for (std::uint32_t j = 0; j < J; ++j)
        gpu_of[j] = best.plan.tables[j].gpu;
    bool improved = true;
    std::uint32_t evals = 0;
    while (improved && evals < 400) {
        improved = false;
        for (std::uint32_t j = 0; j < J && evals < 400; ++j) {
            std::uint32_t from = gpu_of[j];
            for (std::uint32_t g = 0; g < M; ++g) {
                if (g == from)
                    continue;
                gpu_of[j] = g;
                ++evals;
                Candidate cand = buildCandidate(
                    req, inputs, walker, membersOf(gpu_of, M));
                if (cand.feasible && cand.cost < best.cost) {
                    best = std::move(cand);
                    ++climbs;
                    improved = true;
                    from = g;
                } else {
                    gpu_of[j] = from;
                }
            }
        }
    }

    diag.refinementSteps = R + climbs;
    note << "best of " << R << " trials (trial " << best_trial
         << ")";
    if (climbs > 0)
        note << " + " << climbs << " climb moves";
    diag.notes = note.str();
    return best.plan;
}

} // namespace recshard
