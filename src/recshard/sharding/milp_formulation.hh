/**
 * @file
 * The exact RecShard MILP (paper Section 4.2, Constraints 1-12).
 *
 * Builds the paper's formulation over this repository's MILP solver
 * and extracts a ShardingPlan from the optimum. The bilinear terms
 * p_mj * c_j (Constraint 12) and p_mj * mem_j (Constraints 9-10)
 * are McCormick-linearized, which is exact because p is binary.
 *
 * The dense-tableau solver underneath is intended for small and
 * medium instances (unit tests, ablation validation, few-table
 * models); production-scale instances (hundreds of EMBs, the
 * paper's 47k-variable runs) use recShardPlan(), whose quality is
 * cross-checked against this exact path in the test suite.
 */

#ifndef RECSHARD_SHARDING_MILP_FORMULATION_HH
#define RECSHARD_SHARDING_MILP_FORMULATION_HH

#include <cstdint>

#include "recshard/milp/branch_bound.hh"
#include "recshard/sharding/plan.hh"
#include "recshard/sharding/shard_inputs.hh"

namespace recshard {

/** Controls for the exact MILP sharding path. */
struct MilpShardOptions
{
    std::uint32_t batchSize = 16384;
    unsigned icdfSteps = 10;          //!< ICDF linearization steps
    AblationSwitches ablation;
    EmbCostModel::Combine combine = EmbCostModel::Combine::Sum;
    MilpOptions milp;
    /** Refuse to build instances bigger than this many binaries. */
    int maxBinaries = 4000;

    MilpShardOptions()
    {
        // Makespan-style objectives have massive solution symmetry;
        // proving a 1e-6 gap is exponential while a 2% gap closes
        // quickly and is far below placement-statistics noise.
        milp.relativeGap = 0.02;
        milp.timeLimitSec = 20.0;
    }
};

/** Exact path outcome: the plan plus solver diagnostics. */
struct MilpShardResult
{
    ShardingPlan plan;
    MilpResult milp;
    int numVars = 0;
    int numConstraints = 0;
    int numBinaries = 0;
    bool feasible = false;
};

/**
 * The built formulation, exposed so other strategies can work on
 * the same polytope: the lp-rounding planner solves `lp` *without*
 * the integrality side constraints (the LP relaxation) and rounds
 * the fractional p/x variables. Coefficients are normalized; the
 * solved objective must be scaled back by costUnit to be in
 * seconds. The LpProblem is self-contained (owns its rows), so the
 * model may be moved freely; MilpSolver/SimplexSolver borrow it.
 */
struct ShardMilpModel
{
    LpProblem lp;
    std::vector<int> integerVars;
    int vC = 0;                        //!< the makespan objective var
    std::vector<std::vector<int>> vP;  //!< [gpu][table] assignment
    std::vector<std::vector<int>> vX;  //!< [step][table] ICDF choice
    double costUnit = 1.0;             //!< seconds per objective unit
    double memUnit = 1.0;              //!< bytes per memory unit
    std::vector<EmbShardInput> inputs;
    int numGpus = 0;
    int numSteps = 0;                  //!< S (vX has S+1 rows)
};

/**
 * Build the paper's formulation without solving it.
 *
 * fatal()s if the instance exceeds options.maxBinaries — callers
 * wanting a size check without the fatal() can count binaries as
 * M*J + (S+1)*J first.
 */
ShardMilpModel buildShardMilp(const ModelSpec &model,
                              const std::vector<EmbProfile> &profiles,
                              const SystemSpec &system,
                              const MilpShardOptions &options = {});

/**
 * Solve the paper's MILP exactly and extract the plan.
 *
 * fatal()s if the instance exceeds options.maxBinaries — use
 * recShardPlan() for production-scale models.
 */
MilpShardResult milpShardPlan(const ModelSpec &model,
                              const std::vector<EmbProfile> &profiles,
                              const SystemSpec &system,
                              const MilpShardOptions &options = {});

} // namespace recshard

#endif // RECSHARD_SHARDING_MILP_FORMULATION_HH
