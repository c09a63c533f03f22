/**
 * @file
 * The "lp-rounding" strategy: LP relaxation + randomized rounding.
 *
 * The exact MILP (sharding/milp_formulation.hh) is the quality
 * ceiling but infeasible past a few hundred binaries; its LP
 * relaxation solves in one simplex call and its fractional
 * assignment variables are a distribution over near-optimal GPU
 * placements. This planner rounds that distribution: R
 * deterministically-seeded trials sample each table's GPU from the
 * relaxed p_mj values, repair the sample to a feasible pin set with
 * the concave per-GPU split (sharding/split_walk.hh), and keep the
 * candidate with the best uniform bottleneck estimate. Trials are
 * reproducible from PlanRequest::seed.
 *
 * The relaxation is the MILP's own dense-tableau LP, so the planner
 * takes the MILP's size limit too: scalable() is false, and an
 * instance past MilpShardOptions::maxBinaries fails at the boundary
 * with fatal(), exactly as "milp" does.
 */

#ifndef RECSHARD_PLANNER_LP_ROUNDING_HH
#define RECSHARD_PLANNER_LP_ROUNDING_HH

#include "recshard/planner/planner.hh"

namespace recshard {

/** "lp-rounding": relax, round, repair; best of R trials. */
class LpRoundingPlanner : public Planner
{
  public:
    const char *name() const override { return "lp-rounding"; }
    bool scalable() const override { return false; }

  protected:
    ShardingPlan solve(const PlanRequest &request,
                       PlanDiagnostics &diag) const override;
};

} // namespace recshard

#endif // RECSHARD_PLANNER_LP_ROUNDING_HH
