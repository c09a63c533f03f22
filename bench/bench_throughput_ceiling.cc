/**
 * @file
 * Real-threads throughput ceiling: how many embedding-row lookups
 * per second the RealTimeExecutor sustains when every query is
 * pushed at once.
 *
 * This is the wall-clock counterpart of the DES serving benches.
 * The DES twin records its decision stream once under admit-all,
 * so every query is served at full fidelity; the executor then
 * replays that stream --repeats times, producers enqueueing
 * open-loop, so the measured rate is the ceiling of the threaded
 * hot path — MPSC queues, per-core node workers, the
 * contiguous-prefix CSR dispatch — not of any arrival process.
 *
 * Exits non-zero when the median aggregate lookup rate falls below
 * --floor-mlookups (default 1.0M/s) or when any run serves fewer
 * queries than it was offered, making it a CI gate against
 * hot-path regressions. Worker/producer counts default to
 * auto-detection (min(nodes, cores-1) workers), so the gate passes
 * on 2-core runners and scales up on wider machines.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "recshard/base/flags.hh"
#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/realtime.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_throughput_ceiling");
    flags.addInt("features", 12, "sparse features in the model");
    flags.addInt("rows", 20000, "EMB rows per feature (pre-skew)");
    flags.addInt("dim", 128, "embedding dimension");
    flags.addInt("nodes", 3, "serving nodes behind the ingest");
    flags.addInt("gpus", 2, "GPUs per serving node");
    flags.addDouble("hbm-frac", 0.2,
                    "fraction of the model one node's HBM holds");
    flags.addInt("queries", 100000, "queries pushed per run");
    flags.addDouble("mean-samples", 4,
                    "mean ranking candidates per query");
    flags.addInt("cache-rows", 500,
                 "per-GPU LRU hot-row cache rows");
    flags.addInt("workers", 0,
                 "node worker threads (0 = auto-detect)");
    flags.addInt("producers", 0,
                 "ingest threads (0 = auto-detect)");
    flags.addInt("repeats", 5, "runs; the median rate is gated");
    flags.addDouble("floor-mlookups", 1.0,
                    "fail below this many million lookups/sec");
    flags.addInt("profile-samples", 30000, "profiling samples");
    flags.addInt("seed", 7, "model/data/load seed");
    flags.parse(argc, argv);

    const auto seed =
        static_cast<std::uint64_t>(flags.getInt("seed"));
    ModelSpec model = makeTinyModel(
        static_cast<std::uint32_t>(flags.getInt("features")),
        static_cast<std::uint64_t>(flags.getInt("rows")), seed);
    for (auto &f : model.features)
        f.dim = static_cast<std::uint32_t>(flags.getInt("dim"));
    SyntheticDataset data(model, seed * 2654435761ULL + 1);

    SystemSpec system = SystemSpec::paper(
        static_cast<std::uint32_t>(flags.getInt("gpus")), 1.0);
    system.hbm.capacityBytes = static_cast<std::uint64_t>(
        static_cast<double>(model.totalBytes()) *
        flags.getDouble("hbm-frac") /
        static_cast<double>(system.numGpus));
    system.uvm.capacityBytes = model.totalBytes();

    const auto profiles = profileDataset(
        data,
        static_cast<std::uint64_t>(flags.getInt("profile-samples")));

    ClusterPlanOptions cp;
    cp.numNodes =
        static_cast<std::uint32_t>(flags.getInt("nodes"));
    const RoutingCluster cluster =
        buildRoutingCluster(model, profiles, system, cp);

    LoadConfig load;
    load.qps = 1e6; // arrival spacing is irrelevant open-loop
    load.meanQuerySamples = flags.getDouble("mean-samples");
    load.seed = seed ^ 0x60157ULL;
    const RoutedTrace trace = materializeRoutedTrace(
        data, load,
        static_cast<std::uint64_t>(flags.getInt("queries")));

    RealTimeConfig cfg;
    cfg.router.policy = RoutingPolicy::RoundRobin;
    cfg.router.server.cacheRows =
        static_cast<std::uint64_t>(flags.getInt("cache-rows"));
    cfg.workerThreads =
        static_cast<std::uint32_t>(flags.getInt("workers"));
    cfg.producerThreads =
        static_cast<std::uint32_t>(flags.getInt("producers"));

    std::cout << "Model: " << formatBytes(model.totalBytes())
              << " of EMBs; " << cp.numNodes << " nodes x "
              << system.numGpus << " GPUs; "
              << trace.queries.size()
              << " queries pushed open-loop\n\n";

    // Admit-all: the DES decides every query's node and serves it
    // at full fidelity, so each run executes the whole trace.
    std::vector<RouteDecision> decisions;
    (void)Router(model, cluster, cfg.router).route(trace, &decisions);
    const RealTimeExecutor exec(model, cluster, cfg);

    TextTable t({"Run", "workers", "producers", "QPS", "Mlookups/s",
                 "served %"});
    std::vector<double> rates;
    bool all_served = true;
    const auto repeats =
        std::max<std::int64_t>(1, flags.getInt("repeats"));
    for (std::int64_t i = 0; i < repeats; ++i) {
        const RealTimeReport r = exec.run(trace, decisions);
        t.addRow({std::to_string(i + 1),
                  fmtDouble(r.workerThreads, 0),
                  fmtDouble(r.producerThreads, 0),
                  fmtDouble(r.sustainedQps, 0),
                  fmtDouble(r.lookupsPerSecond / 1e6, 2),
                  fmtDouble(100.0 *
                                static_cast<double>(r.ledger.served) /
                                static_cast<double>(r.ledger.offered),
                            1)});
        rates.push_back(r.lookupsPerSecond);
        all_served = all_served && r.ledger.served == r.ledger.offered;
    }
    t.print(std::cout, "Real-threads throughput ceiling");

    std::sort(rates.begin(), rates.end());
    const double median =
        (rates[(rates.size() - 1) / 2] + rates[rates.size() / 2]) / 2;
    const double floor = flags.getDouble("floor-mlookups") * 1e6;
    std::cout << "\nmedian " << fmtDouble(median / 1e6, 2)
              << " Mlookups/s over " << rates.size() << " runs (min "
              << fmtDouble(rates.front() / 1e6, 2) << ", max "
              << fmtDouble(rates.back() / 1e6, 2) << ")\n";
    if (!all_served) {
        std::cout << "FLOOR VIOLATED: a run served fewer queries "
                     "than it was offered\n";
        return 1;
    }
    std::cout << (median >= floor ? "FLOOR HOLDS" : "FLOOR VIOLATED")
              << ": " << fmtDouble(median / 1e6, 2)
              << (median >= floor ? " >= " : " < ")
              << fmtDouble(floor / 1e6, 2) << " Mlookups/s\n";
    return median >= floor ? 0 : 1;
}
