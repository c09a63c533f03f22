/**
 * @file
 * The six built-in planning strategies. Five are `Planner`
 * adapters over the pre-existing free functions:
 *
 *   "recshard"           recShardPlan()  — scalable solver
 *   "milp"               milpShardPlan() — exact MILP (small/medium
 *                        instances only; scalable() == false)
 *   "greedy-size"        greedyShard(BaselineCost::Size)
 *   "greedy-lookup"      greedyShard(BaselineCost::Lookup)
 *   "greedy-size-lookup" greedyShard(BaselineCost::SizeLookup)
 *
 * and one lives in this directory:
 *
 *   "lp-rounding"        lp_rounding.hh — LP relaxation + seeded
 *                        randomized rounding with repair (MILP-sized
 *                        instances only; scalable() == false)
 *
 * The registry seeds itself from builtinPlanners() inside its
 * store's thread-safe static initialization (registry.cc), so the
 * built-ins are always present — and always first — before any
 * lookup or external registration proceeds.
 */

#ifndef RECSHARD_PLANNER_STRATEGIES_HH
#define RECSHARD_PLANNER_STRATEGIES_HH

#include <string>
#include <utility>
#include <vector>

#include "recshard/planner/registry.hh"

namespace recshard {

/** The built-ins as (name, factory) pairs, in registration order. */
std::vector<std::pair<std::string, PlannerRegistry::Factory>>
builtinPlanners();

} // namespace recshard

#endif // RECSHARD_PLANNER_STRATEGIES_HH
