/**
 * @file
 * Capacity-constrained sharding: a scaled-down RM2 (the paper's
 * motivating scenario — the model no longer fits in aggregate HBM)
 * sharded by every scalable strategy in the planner registry (the
 * three production baselines and RecShard, plus anything you
 * register), with the resulting plans replayed on identical
 * traffic.
 *
 * This is the paper's Fig. 11 / Table 5 story at example scale.
 *
 * Build & run:   ./examples/capacity_constrained
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"

using namespace recshard;

int
main()
{
    // RM2 at 1/256 scale still exceeds the (equally scaled) HBM of
    // a 8-GPU node, so sharding must use UVM.
    const double scale = 1.0 / 256.0;
    const ModelSpec model = makeRm2(scale);
    SyntheticDataset data(model, 99);
    const SystemSpec system = SystemSpec::paper(8, scale);
    std::cout << "RM2 at 1/256 scale: "
              << formatBytes(model.totalBytes()) << " vs "
              << formatBytes(system.totalHbmBytes())
              << " of total HBM -> UVM required\n\n";

    const auto profiles = profileDataset(data, 30000, 4096);

    // One request, every registered strategy that scales to this
    // instance ("milp" and "lp-rounding" opt out via
    // Planner::scalable()).
    const PlanRequest request =
        PlanRequest::make(model, profiles, system, 2048);

    std::vector<ShardingPlan> plans;
    for (const auto &name : PlannerRegistry::names()) {
        const auto planner = PlannerRegistry::create(name);
        if (!planner->scalable())
            continue;
        plans.push_back(planner->plan(request).plan);
    }

    ExecutionEngine engine(data, system, EmbCostModel(system));
    std::vector<const ShardingPlan *> ptrs;
    std::vector<std::vector<TierResolver>> resolvers;
    for (const auto &plan : plans) {
        ptrs.push_back(&plan);
        resolvers.push_back(ExecutionEngine::buildResolvers(
            model, plan, profiles));
    }
    ReplayConfig cfg;
    cfg.batchSize = 2048;
    cfg.warmupIterations = 1;
    cfg.measureIterations = 6;
    const auto results = engine.replay(ptrs, resolvers, cfg);

    double slowest = 0;
    for (const auto &r : results)
        slowest = std::max(slowest, r.meanBottleneckTime);

    TextTable t({"Strategy", "Bottleneck iter (ms)",
                 "Speedup vs slowest", "UVM access %",
                 "Rows on UVM"});
    for (std::size_t p = 0; p < results.size(); ++p) {
        const auto &r = results[p];
        t.addRow({r.strategy,
                  fmtDouble(r.meanBottleneckTime * 1e3, 3),
                  fmtDouble(slowest / r.meanBottleneckTime, 2) + "x",
                  fmtDouble(100 * r.uvmAccessFraction(), 2) + "%",
                  std::to_string(plans[p].totalUvmRows(model))});
    }
    t.print(std::cout, "Capacity-constrained sharding (RM2-like)");
    std::cout << "\nRecShard wins by keeping the hot head of every "
              << "table in HBM and spilling only cold tail rows.\n";
    return 0;
}
