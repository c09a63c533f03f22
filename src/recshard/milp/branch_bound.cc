#include "recshard/milp/branch_bound.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <queue>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** A variable within this distance of an integer counts as one. */
constexpr double kIntTol = 1e-6;

/** One open subproblem: bound overrides plus its parent's bound. */
struct Node
{
    double lpBound;
    int depth;
    std::vector<double> lb;
    std::vector<double> ub;
};

struct NodeOrder
{
    bool
    operator()(const std::shared_ptr<Node> &a,
               const std::shared_ptr<Node> &b) const
    {
        // Best-first on the LP bound; deeper first on ties so the
        // search plunges toward integer solutions early.
        if (a->lpBound != b->lpBound)
            return a->lpBound > b->lpBound;
        return a->depth < b->depth;
    }
};

} // namespace

MilpSolver::MilpSolver(const LpProblem &problem,
                       std::vector<int> integer_vars,
                       MilpOptions options)
    : prob(problem), intVars(std::move(integer_vars)), opts(options)
{
    for (int v : intVars) {
        fatal_if(v < 0 || v >= prob.numVars(),
                 "integer variable index ", v, " out of range");
    }
}

MilpResult
MilpSolver::solve() const
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    auto elapsed = [&]() {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    SimplexSolver simplex(prob);
    const int n = prob.numVars();

    MilpResult result;
    result.objective = kLpInf;

    auto fractional_var = [&](const std::vector<double> &x) {
        int best = -1;
        double best_frac = kIntTol;
        for (int v : intVars) {
            const double f = x[v] - std::floor(x[v]);
            const double dist = std::min(f, 1.0 - f);
            if (dist > best_frac) {
                // Most-fractional branching.
                best_frac = dist;
                best = v;
            }
        }
        return best;
    };

    auto try_incumbent = [&](double obj, const std::vector<double> &x) {
        if (obj < result.objective - 1e-12) {
            result.objective = obj;
            result.values = x;
            result.status = LpStatus::Optimal;
        }
    };

    // Root node with the model's own bounds.
    auto root = std::make_shared<Node>();
    root->depth = 0;
    root->lb.resize(n);
    root->ub.resize(n);
    for (int j = 0; j < n; ++j) {
        root->lb[j] = prob.variable(j).lb;
        root->ub[j] = prob.variable(j).ub;
    }

    const LpSolution root_sol = simplex.solve(root->lb, root->ub);
    if (root_sol.status == LpStatus::Infeasible ||
        root_sol.status == LpStatus::Unbounded) {
        result.status = root_sol.status;
        return result;
    }
    if (root_sol.status == LpStatus::IterLimit) {
        result.status = LpStatus::IterLimit;
        return result;
    }
    root->lpBound = root_sol.objective;
    result.bestBound = root_sol.objective;

    // Rounding heuristic: clamp integers to the nearest value, fix
    // them, and re-solve for the continuous remainder.
    if (opts.roundingHeuristic && !intVars.empty()) {
        std::vector<double> lb = root->lb, ub = root->ub;
        for (int v : intVars) {
            double r = std::round(root_sol.values[v]);
            r = std::clamp(r, lb[v], ub[v]);
            r = std::floor(r + 0.5);
            lb[v] = ub[v] = r;
        }
        const LpSolution rounded = simplex.solve(lb, ub);
        if (rounded.status == LpStatus::Optimal)
            try_incumbent(rounded.objective, rounded.values);
    }

    std::priority_queue<std::shared_ptr<Node>,
                        std::vector<std::shared_ptr<Node>>,
                        NodeOrder> open;
    open.push(root);

    auto gap_closed = [&]() {
        if (result.values.empty())
            return false;
        // Truly relative: tiny-magnitude objectives (e.g. costs in
        // seconds) must not degenerate into an absolute tolerance.
        const double denom = std::max(std::abs(result.objective),
                                      1e-12);
        return (result.objective - result.bestBound) / denom <=
            opts.relativeGap;
    };

    while (!open.empty()) {
        if (result.nodesExplored >= opts.nodeLimit)
            break;
        if (opts.timeLimitSec > 0 && elapsed() > opts.timeLimitSec)
            break;

        auto node = open.top();
        open.pop();
        result.bestBound = node->lpBound;
        if (gap_closed())
            break;
        if (node->lpBound >= result.objective - 1e-12)
            continue; // dominated by the incumbent

        ++result.nodesExplored;
        const LpSolution sol = simplex.solve(node->lb, node->ub);
        if (sol.status == LpStatus::IterLimit ||
            sol.status == LpStatus::Unbounded) {
            // Numerically stuck subtree: abandoning it keeps the
            // search finite but forfeits the optimality proof.
            ++result.unresolvedNodes;
            continue;
        }
        if (sol.status != LpStatus::Optimal)
            continue; // genuinely infeasible subtree
        if (sol.objective >= result.objective - 1e-12)
            continue;

        const int branch_var = fractional_var(sol.values);
        if (branch_var < 0) {
            try_incumbent(sol.objective, sol.values);
            continue;
        }

        const double val = sol.values[branch_var];
        auto down = std::make_shared<Node>();
        down->depth = node->depth + 1;
        down->lpBound = sol.objective;
        down->lb = node->lb;
        down->ub = node->ub;
        down->ub[branch_var] = std::floor(val);

        auto up = std::make_shared<Node>();
        up->depth = node->depth + 1;
        up->lpBound = sol.objective;
        up->lb = node->lb;
        up->ub = node->ub;
        up->lb[branch_var] = std::ceil(val);

        if (down->ub[branch_var] >= down->lb[branch_var] - 1e-12)
            open.push(down);
        if (up->lb[branch_var] <= up->ub[branch_var] + 1e-12)
            open.push(up);
    }

    if (result.values.empty()) {
        // No incumbent found within limits. Only a fully explored
        // tree with no abandoned (numerically stuck) subtrees is a
        // proof of infeasibility; any open or unresolved subproblem
        // could still hide an integer solution, so the honest label
        // is the limit status.
        result.status =
            open.empty() && result.unresolvedNodes == 0
                ? LpStatus::Infeasible
                : LpStatus::IterLimit;
        return result;
    }
    if (open.empty() && result.unresolvedNodes == 0)
        result.bestBound = result.objective;
    result.provenOptimal = (gap_closed() || open.empty()) &&
        result.unresolvedNodes == 0;
    return result;
}

} // namespace recshard
