/**
 * @file
 * N-tier plan extension (paper Section 4.4).
 *
 * Every registry planner solves the paper's two-tier problem: how
 * many hottest rows of each EMB deserve HBM. This module is the
 * bridge that makes all of them N-tier without touching their
 * solvers:
 *
 *   twoTierProjection()  -- collapse an N-tier SystemSpec into the
 *                           two-tier spec the solvers understand:
 *                           HBM unchanged, all cold tiers merged
 *                           into one aggregate "UVM" whose capacity
 *                           is the cold sum and whose bandwidth is
 *                           the capacity-weighted harmonic mean
 *                           (the bandwidth a byte spread uniformly
 *                           across the cold tiers would see).
 *
 *   extendPlanToTiers()  -- split each table's cold remainder
 *                           across the real cold tiers by the
 *                           exchange argument: process tables'
 *                           rank-contiguous CDF chunks in global
 *                           access-density-per-byte order, each
 *                           chunk taking the fastest cold tier with
 *                           remaining capacity. Emits per-tier pin
 *                           sets (tierRows / tierAccessFraction)
 *                           into the plan.
 *
 *   maxCombineBottleneck() -- the Combine::Max reading of a plan
 *                           (hypothetical fully-concurrent tier
 *                           reads) over the stack's bandwidths, for
 *                           planner diagnostics.
 */

#ifndef RECSHARD_TIERING_TIER_PLAN_HH
#define RECSHARD_TIERING_TIER_PLAN_HH

#include <cstdint>
#include <vector>

#include "recshard/memsim/system_spec.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/**
 * The two-tier view of an N-tier system that existing solvers can
 * plan against. For a two-tier system this is the identity.
 */
SystemSpec twoTierProjection(const SystemSpec &system);

/**
 * Distribute each table's non-HBM remainder across the system's
 * cold tiers (hottest remaining rows to the fastest tier, chunk
 * granular), filling tierRows / tierAccessFraction on every
 * placement. A two-tier system leaves the plan untouched. The
 * tier-0 decision (hbmRows) is the solver's and is never changed.
 *
 * fatal()s if the cold tiers cannot hold the plan's cold bytes on
 * some GPU — callers should have solved against
 * twoTierProjection(), whose aggregate capacity makes this
 * impossible.
 */
void extendPlanToTiers(const ModelSpec &model,
                       const std::vector<EmbProfile> &profiles,
                       const SystemSpec &system, ShardingPlan &plan);

/**
 * Per-tier access shares of one placement: tierAccessFraction when
 * present, recomputed from the CDF's rank ranges for a tiered
 * placement without fractions, {pct, 1 - pct, 0, ...} for a legacy
 * two-tier placement.
 */
std::vector<double> tierAccessShares(const EmbPlacement &placement,
                                     const FrequencyCdf &cdf,
                                     std::size_t num_tiers);

/**
 * Bottleneck-GPU embedding cost under Combine::Max (all tiers read
 * concurrently): per GPU, the largest of each tier's bytes over
 * its bandwidth, without access latency. Near-data tiers
 * ship reduced vectors only, as in EmbCostModel. Legacy two-tier
 * placements price as {HBM bytes, tier-1 bytes, 0, ...}.
 */
double maxCombineBottleneck(const ModelSpec &model,
                            const std::vector<EmbProfile> &profiles,
                            const SystemSpec &system,
                            const ShardingPlan &plan,
                            std::uint32_t batch);

} // namespace recshard

#endif // RECSHARD_TIERING_TIER_PLAN_HH
