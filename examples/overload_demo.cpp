/**
 * @file
 * Overload-control demo: a routed cluster pushed past saturation
 * with degraded-mode serving switched on.
 *
 * Profiles a small model once, builds a three-node cluster, then
 * routes one query trace at roughly twice what the cluster can
 * serve — first with the historical admit-everything router, then
 * with queue-threshold admission and degraded-mode serving. The point
 * the two tables make: under overload the uncontrolled router's
 * p99 is queueing delay, not serving speed, while the controlled
 * run keeps served queries inside the SLA by shrinking their
 * ranking-candidate counts (and, past the brownout backstop,
 * shedding the remainder).
 *
 * Build and run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/overload_demo
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/router.hh"

using namespace recshard;

namespace {

void
printReport(const RoutingReport &r, const std::string &title)
{
    TextTable t({"Metric", "Value"});
    t.addRow({"mode", r.name});
    t.addRow({"offered queries", std::to_string(r.queries)});
    t.addRow({"served / degraded / shed",
              std::to_string(r.servedQueries) + " / " +
                  std::to_string(r.degradedQueries) + " / " +
                  std::to_string(r.shedQueries)});
    t.addRow({"goodput (in-SLA QPS)", fmtDouble(r.goodput, 0)});
    t.addRow({"p99 latency (served)",
              formatSeconds(r.p99Latency)});
    t.addRow({"SLA violations (served)",
              fmtDouble(100 * r.slaViolationRate, 2) + " %"});
    t.addRow({"candidates served",
              fmtDouble(100 * r.candidateFraction, 1) + " %"});
    t.addRow({"peak node queue",
              std::to_string(r.maxNodeOutstanding)});
    t.print(std::cout, title);
    std::cout << "\n";
}

} // namespace

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

    // Roughly 2x this cluster's capacity for the trace below —
    // deep enough into overload that the two runs tell different
    // stories (bench_overload_control measures the exact
    // saturation rate instead of eyeballing it).
    LoadConfig load;
    load.qps = 500000.0;
    load.seed = 99;
    const RoutedTrace trace = materializeRoutedTrace(data, load, 5000);

    RouterConfig rc;
    rc.policy = RoutingPolicy::LeastOutstanding;
    rc.server.cacheRows = 500;
    rc.server.batchOverheadSeconds = 5e-6;
    rc.slaSeconds = 0.001;

    std::cout << "Cluster: " << cp.numNodes
              << " nodes x " << system.numGpus
              << " GPUs serving "
              << formatBytes(model.totalBytes())
              << " of EMBs, offered "
              << fmtDouble(load.qps, 0) << " QPS\n\n";

    // Run 1: the historical router — every query admitted at full
    // fidelity, queues left to grow.
    printReport(Router(model, cluster, rc).route(trace),
                "Admit-all under overload");

    // Run 2: queue-threshold admission + degraded-mode serving
    // with the brownout->blackout backstop.
    RouterConfig controlled = rc;
    controlled.overload.admission.policy = "queue-threshold";
    controlled.overload.admission.maxOutstanding = 32;
    controlled.overload.degradation.enabled = true;
    controlled.overload.degradation.shedPressure = 3.0;
    printReport(Router(model, cluster, controlled).route(trace),
                "Queue-threshold + degraded-mode serving");
    return 0;
}
