#include "recshard/sharding/cluster_plan.hh"

#include <algorithm>
#include <numeric>
#include <string>

#include "recshard/base/logging.hh"
#include "recshard/planner/registry.hh"
#include "recshard/tiering/tier_plan.hh"

namespace recshard {

namespace {

/**
 * LPT partition of tables into one slice per node by expected
 * traffic, weighted by node HBM: the next-heaviest table goes to
 * the node with the lowest (load + weight) / totalHbmBytes, so a
 * node with twice the HBM absorbs roughly twice the traffic. With
 * identical nodes this reduces exactly to the classic least-loaded
 * LPT rule.
 */
std::vector<std::vector<std::uint32_t>>
partitionByTraffic(const ModelSpec &model,
                   const std::vector<EmbProfile> &profiles,
                   const std::vector<SystemSpec> &specs)
{
    const std::uint32_t J = model.numFeatures();
    const auto N = static_cast<std::uint32_t>(specs.size());
    std::vector<std::uint32_t> order(J);
    std::iota(order.begin(), order.end(), 0u);
    std::vector<double> weight(J);
    for (std::uint32_t j = 0; j < J; ++j)
        weight[j] = profiles[j].expectedAccessesPerSample() *
            static_cast<double>(model.features[j].rowBytes());
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return weight[a] != weight[b]
                      ? weight[a] > weight[b] : a < b;
              });

    std::vector<std::vector<std::uint32_t>> slices(N);
    std::vector<double> load(N, 0.0);
    std::uint32_t empty_slices = N;
    std::uint32_t remaining = J;
    for (const std::uint32_t j : order) {
        // Every node must end with a non-empty slice (an empty one
        // would silently disable locality routing and hedging for
        // that node): once the tables left only just cover the
        // still-empty slices, restrict placement to those.
        const bool must_fill_empty = remaining == empty_slices;
        std::uint32_t best = 0;
        double best_fill = -1.0;
        for (std::uint32_t n = 0; n < N; ++n) {
            if (must_fill_empty && !slices[n].empty())
                continue;
            const double fill = (load[n] + weight[j]) /
                static_cast<double>(specs[n].totalHbmBytes());
            if (best_fill < 0.0 || fill < best_fill) {
                best = n;
                best_fill = fill;
            }
        }
        empty_slices -= slices[best].empty() ? 1 : 0;
        slices[best].push_back(j);
        load[best] += weight[j];
        --remaining;
    }
    for (auto &slice : slices)
        std::sort(slice.begin(), slice.end());
    return slices;
}

} // namespace

ClusterPlanSet
solveNodePlans(const ModelSpec &model,
               const std::vector<EmbProfile> &profiles,
               const SystemSpec &system,
               const ClusterPlanOptions &options)
{
    const std::uint32_t J = model.numFeatures();
    fatal_if(profiles.size() != J, "profiles (", profiles.size(),
             ") != model tables (", J, ")");

    ClusterPlanSet out;
    if (options.nodeSpecs.empty()) {
        fatal_if(options.numNodes == 0,
                 "cluster needs at least one node");
        out.nodeSpecs.assign(options.numNodes, system);
    } else {
        out.nodeSpecs = options.nodeSpecs;
    }
    const auto N = static_cast<std::uint32_t>(out.nodeSpecs.size());
    for (const SystemSpec &spec : out.nodeSpecs)
        spec.validate();
    fatal_if(N > J, "cannot slice ", J, " tables across ", N,
             " nodes");

    const std::unique_ptr<Planner> planner =
        PlannerRegistry::create(options.plannerName);

    out.slices = partitionByTraffic(model, profiles, out.nodeSpecs);
    out.plans.reserve(N);
    out.diags.reserve(N);

    for (std::uint32_t n = 0; n < N; ++n) {
        const std::vector<std::uint32_t> &slice = out.slices[n];
        const SystemSpec &node_sys = out.nodeSpecs[n];

        // Solve the slice as its own model under the node's own
        // budget: node n spends all of its HBM on its slice's ICDFs.
        ModelSpec sub;
        sub.name = model.name + "/node" + std::to_string(n);
        std::vector<EmbProfile> sub_profiles;
        sub.features.reserve(slice.size());
        sub_profiles.reserve(slice.size());
        for (const std::uint32_t j : slice) {
            sub.features.push_back(model.features[j]);
            sub_profiles.push_back(profiles[j]);
        }
        // Batch size follows the selected path, matching the
        // pipeline's phase-2 rule.
        PlanRequest req = PlanRequest::make(
            sub, sub_profiles, node_sys,
            options.plannerName == "milp"
                ? options.milp.batchSize
                : options.solver.batchSize);
        req.solver = options.solver;
        req.milp = options.milp;
        // Node n solves with seed + n so replicas don't round
        // identically by accident while the cluster stays
        // reproducible.
        req.seed += n;
        PlanResult solved = planner->plan(req);
        fatal_if(!solved.diag.feasible,
                 "planner '", options.plannerName,
                 "' found no feasible plan for node ", n,
                 "'s slice");
        const ShardingPlan &sub_plan = solved.plan;

        // Lift back to the full model. Slice tables keep their
        // solved placement; every other table lives wholly in UVM,
        // packed onto the least-loaded GPU so no single GPU's UVM
        // budget or bandwidth is a hotspot.
        ShardingPlan plan;
        plan.strategy =
            sub_plan.strategy + "/node" + std::to_string(n);
        plan.tables.resize(J);
        std::vector<std::uint64_t> uvm_load(node_sys.numGpus, 0);
        for (std::size_t i = 0; i < slice.size(); ++i) {
            plan.tables[slice[i]] = sub_plan.tables[i];
            const auto &f = model.features[slice[i]];
            uvm_load[sub_plan.tables[i].gpu] +=
                (f.hashSize - sub_plan.tables[i].hbmRows) *
                f.rowBytes();
        }

        std::vector<std::uint32_t> rest;
        for (std::uint32_t j = 0; j < J; ++j)
            if (!std::binary_search(slice.begin(), slice.end(), j))
                rest.push_back(j);
        std::sort(rest.begin(), rest.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const auto ba = model.features[a].tableBytes();
                      const auto bb = model.features[b].tableBytes();
                      return ba != bb ? ba > bb : a < b;
                  });
        for (const std::uint32_t j : rest) {
            const auto gpu = static_cast<std::uint32_t>(
                std::min_element(uvm_load.begin(), uvm_load.end()) -
                uvm_load.begin());
            plan.tables[j].gpu = gpu;
            plan.tables[j].hbmRows = 0;
            plan.tables[j].hbmAccessFraction = 0.0;
            uvm_load[gpu] += model.features[j].tableBytes();
        }

        // On an N-tier node, redo the cold-tier split jointly over
        // the lifted plan: the slice solve only saw its own tables,
        // but the non-slice tables now compete for the same DRAM /
        // SSD budgets. The HBM decision is untouched.
        if (node_sys.numTiers() > 2) {
            for (auto &t : plan.tables) {
                t.tierRows.clear();
                t.tierAccessFraction.clear();
            }
            extendPlanToTiers(model, profiles, node_sys, plan);
        }

        plan.validate(model, node_sys);
        out.plans.push_back(std::move(plan));
        out.diags.push_back(std::move(solved.diag));
    }
    return out;
}

} // namespace recshard
