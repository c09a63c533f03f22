/**
 * @file
 * Name-keyed planner factory.
 *
 * Strategies register a factory under a stable name; callers select
 * one with `PlannerRegistry::create(name)` — pipelines, cluster
 * assembly, benches, and tests all pick strategies by string, so a
 * new strategy becomes reachable everywhere the moment it
 * registers. The registry's store seeds itself with the six
 * built-ins ("greedy-size", "greedy-lookup", "greedy-size-lookup",
 * "recshard", "milp", "lp-rounding")
 * inside its thread-safe static initialization
 * (strategies.hh: builtinPlanners()), which sidesteps the
 * static-library dead-stripping of self-registration objects;
 * external strategies can still self-register with a
 * `PlannerRegistrar` at static-init time.
 */

#ifndef RECSHARD_PLANNER_REGISTRY_HH
#define RECSHARD_PLANNER_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "recshard/planner/planner.hh"

namespace recshard {

class PlannerRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Planner>()>;

    /**
     * Register a strategy; fatal() on an empty name, a null
     * factory, or a duplicate. Returns true so it can initialize a
     * static (see PlannerRegistrar).
     */
    static bool add(const std::string &name, Factory factory);

    /** Instantiate a strategy; fatal() on an unknown name, listing
     *  the registered ones. */
    static std::unique_ptr<Planner> create(const std::string &name);

    static bool contains(const std::string &name);

    /** Registered names, in registration order (built-ins first:
     *  the three greedy baselines, "recshard", "milp", then
     *  "lp-rounding"). */
    static std::vector<std::string> names();
};

/** RAII self-registration: `static PlannerRegistrar r{"x", f};` */
struct PlannerRegistrar
{
    PlannerRegistrar(const std::string &name,
                     PlannerRegistry::Factory factory)
    {
        PlannerRegistry::add(name, std::move(factory));
    }
};

} // namespace recshard

#endif // RECSHARD_PLANNER_REGISTRY_HH
