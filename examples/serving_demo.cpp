/**
 * @file
 * Serving demo: from a sharding plan to an SLA answer.
 *
 * Walks the online-serving subsystem end to end:
 *   1. solve a RecShard plan for a capacity-constrained 2-GPU
 *      system (the usual pipeline),
 *   2. serve live traffic on it (serveTraffic) and read the
 *      report: QPS, p50/p95/p99 latency, queue depth, SLA
 *      violations,
 *   3. show what dynamic batching buys by re-serving the same load
 *      with batching effectively disabled,
 *   4. show what the LRU hot-row cache buys the size-greedy
 *      baseline plan, which leaves whole tables in UVM.
 *
 * Build & run:   ./examples/serving_demo
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/core/pipeline.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/baselines.hh"

using namespace recshard;

namespace {

void
addReportRow(TextTable &t, const std::string &label,
             const ServingReport &r)
{
    t.addRow({label, fmtDouble(r.qps, 0),
              formatSeconds(r.p50Latency),
              formatSeconds(r.p99Latency),
              fmtDouble(r.meanQueueDepth, 1),
              fmtDouble(100 * r.cacheHitRate, 1) + "%",
              fmtDouble(100 * r.slaViolationRate, 2) + "%"});
}

} // namespace

int
main()
{
    // 1. Model + capacity-constrained system, as in quickstart, but
    //    with wide rows so memory tiers dominate service time.
    ModelSpec model = makeTinyModel(12, 20000, 7);
    for (auto &f : model.features)
        f.dim = 128;
    SyntheticDataset data(model, 2024);
    SystemSpec system = SystemSpec::paper(2, 1.0);
    system.hbm.capacityBytes = model.totalBytes() / 5;
    system.uvm.capacityBytes = model.totalBytes();

    // 22k QPS against a 50 us per-micro-batch kernel overhead: a
    // server that refuses to batch needs 50 us per *query* and
    // saturates near 20k QPS, so batching is what keeps the system
    // stable at this load.
    ServingConfig serving;
    serving.load.qps = 22000.0;
    serving.load.seed = 99;
    serving.numQueries = 20000;
    serving.batching.maxWaitSeconds = 0.002;
    serving.server.batchOverheadSeconds = 50e-6;
    serving.slaSeconds = 0.005;

    std::cout << "Model: " << formatBytes(model.totalBytes())
              << "; per-GPU HBM budget "
              << formatBytes(system.hbm.capacityBytes)
              << "; serving "
              << serving.numQueries << " queries at "
              << serving.load.qps << " QPS\n\n";

    // 2. Pipeline phases 1-3, then the plan under live traffic.
    PipelineOptions options;
    options.profileSamples = 30000;
    const PipelineResult result =
        RecShardPipeline(data, system, options).run();
    const ServingReport recshard = serveTraffic(
        data, result.plan, result.resolvers, system, serving);

    TextTable t({"Configuration", "QPS", "p50", "p99", "mean depth",
                 "cache hit", "SLA viol"});
    addReportRow(t, "RecShard + batching", recshard);

    // 3. Same plan, batching effectively off: every query pays the
    //    kernel launch alone, the servers saturate, and the queue
    //    (and tail latency) diverges.
    ServingConfig no_batch = serving;
    no_batch.batching.maxBatchQueries = 1;
    no_batch.batching.maxBatchSamples = 1;
    addReportRow(t, "RecShard, no batching",
                 serveTraffic(data, result.plan, result.resolvers,
                              system, no_batch));

    // 4. The size-greedy baseline under the same traffic, with and
    //    without a 4k-row per-GPU LRU hot-row cache in front of its
    //    UVM-resident tables.
    const ShardingPlan baseline = greedyShard(
        BaselineCost::Size, model, result.profiles, system);
    const auto base_resolvers = ExecutionEngine::buildResolvers(
        model, baseline, result.profiles);
    addReportRow(t, "Size-Based",
                 serveTraffic(data, baseline, base_resolvers, system,
                              serving));
    ServingConfig cached = serving;
    cached.server.cacheRows = 4000;
    addReportRow(t, "Size-Based + 4k LRU",
                 serveTraffic(data, baseline, base_resolvers, system,
                              cached));

    t.print(std::cout, "Serving the same live traffic");
    std::cout << "\nRecShard + batching served " << recshard.queries
              << " queries across " << recshard.batches
              << " micro-batches.\n";
    return 0;
}
