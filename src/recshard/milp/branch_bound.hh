/**
 * @file
 * Mixed-integer linear programming by LP-based branch-and-bound.
 *
 * RecShard formulates EMB partitioning/placement as a MILP (paper
 * Section 4.2) and solves it with Gurobi; this self-contained solver
 * replaces Gurobi for the exact path. Best-first search on the LP
 * relaxation bound with most-fractional branching, plus a rounding
 * heuristic to seed the incumbent. Node, time, and gap limits keep
 * worst cases controlled; the result reports whether optimality was
 * proven.
 */

#ifndef RECSHARD_MILP_BRANCH_BOUND_HH
#define RECSHARD_MILP_BRANCH_BOUND_HH

#include <cstdint>
#include <vector>

#include "recshard/lp/problem.hh"
#include "recshard/lp/simplex.hh"

namespace recshard {

/** Branch-and-bound controls. */
struct MilpOptions
{
    /** Stop when (incumbent - bound) / max(|incumbent|,1) <= gap. */
    double relativeGap = 1e-6;
    /** Maximum number of explored nodes. */
    std::uint64_t nodeLimit = 200000;
    /** Wall-clock budget in seconds (<= 0 disables). */
    double timeLimitSec = 60.0;
    /** Try rounding the relaxation to seed the incumbent. */
    bool roundingHeuristic = true;
};

/** MILP outcome. */
struct MilpResult
{
    LpStatus status = LpStatus::IterLimit;
    bool provenOptimal = false;
    double objective = 0.0;   //!< incumbent objective
    double bestBound = 0.0;   //!< global lower bound on the optimum
    std::vector<double> values;
    std::uint64_t nodesExplored = 0;
    /** Subproblems abandoned because their LP hit limits; any value
     *  here invalidates an optimality proof. */
    std::uint64_t unresolvedNodes = 0;
};

/**
 * Branch-and-bound MILP solver.
 *
 * The problem and the list of integer-constrained variable indices
 * are fixed at construction; solve() may be called repeatedly.
 */
class MilpSolver
{
  public:
    /**
     * @param problem      Underlying LP (must outlive the solver).
     * @param integer_vars Indices of integrality-constrained vars.
     * @param options      Search controls.
     */
    MilpSolver(const LpProblem &problem,
               std::vector<int> integer_vars,
               MilpOptions options = MilpOptions{});

    /** Run the search. */
    MilpResult solve() const;

  private:
    const LpProblem &prob;
    std::vector<int> intVars;
    MilpOptions opts;
};

} // namespace recshard

#endif // RECSHARD_MILP_BRANCH_BOUND_HH
