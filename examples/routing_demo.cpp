/**
 * @file
 * Multi-node routing demo: one routed cluster, start to finish.
 *
 * Profiles a small model, slices the tables across a three-node
 * cluster, solves one plan per node, and routes an online query
 * trace through the cluster with locality-aware routing and request
 * hedging — one combination of what bench_routing_policies measures
 * combination by combination.
 *
 * Build and run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/routing_demo
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/router.hh"

using namespace recshard;

int
main()
{
    ModelSpec model = makeTinyModel(12, 20000, 7);
    for (auto &f : model.features)
        f.dim = 128;
    SyntheticDataset data(model, 2024);

    SystemSpec system = SystemSpec::paper(2, 1.0);
    system.hbm.capacityBytes =
        model.totalBytes() / 5 / system.numGpus;
    system.uvm.capacityBytes = model.totalBytes();

    ClusterPlanOptions cp;
    cp.numNodes = 3;
    const RoutingCluster cluster = buildRoutingCluster(
        model, profileDataset(data, 30000), system, cp);

    LoadConfig load;
    load.qps = 180000.0;
    load.seed = 99;
    const RoutedTrace trace = materializeRoutedTrace(data, load, 5000);

    RouterConfig rc;
    rc.policy = RoutingPolicy::LocalityAware;
    rc.hedge.enabled = true;
    rc.server.cacheRows = 500;
    rc.server.batchOverheadSeconds = 5e-6;
    rc.slaSeconds = 0.001;
    const RoutingReport r = Router(model, cluster, rc).route(trace);

    std::cout << "Cluster: " << cp.numNodes
              << " nodes x " << system.numGpus
              << " GPUs serving "
              << formatBytes(model.totalBytes())
              << " of EMBs\n\n";

    TextTable t({"Metric", "Value"});
    t.addRow({"policy", r.name});
    t.addRow({"queries", std::to_string(r.queries)});
    t.addRow({"achieved QPS", fmtDouble(r.qps, 0)});
    t.addRow({"p50 latency", formatSeconds(r.p50Latency)});
    t.addRow({"p95 latency", formatSeconds(r.p95Latency)});
    t.addRow({"p99 latency", formatSeconds(r.p99Latency)});
    t.addRow({"SLA violations",
              fmtDouble(100 * r.slaViolationRate, 2) + " %"});
    t.addRow({"hedge rate",
              fmtDouble(100 * r.hedgeRate, 2) + " %"});
    t.addRow({"hedge wins", std::to_string(r.hedgeWins)});
    t.addRow({"canceled copies",
              std::to_string(r.canceledCopies)});
    t.addRow({"wasted work",
              fmtDouble(100 * r.wastedWorkFraction, 2) + " %"});
    t.addRow({"UVM access share",
              fmtDouble(100 * r.uvmAccessFraction, 2) + " %"});
    t.addRow({"cluster utilization",
              fmtDouble(100 * r.clusterUtilization, 1) + " %"});
    t.print(std::cout, "Routed serving (phase 5)");

    std::cout << "\nPer-node dispatches:";
    for (std::size_t n = 0; n < r.nodeQueries.size(); ++n)
        std::cout << " node" << n << "=" << r.nodeQueries[n];
    std::cout << "\n";
    return 0;
}
