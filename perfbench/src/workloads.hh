/**
 * @file
 * The two perfbench workloads and the pieces of them the tests
 * drive directly. Every workload runs single-threaded in one
 * process and reaches the program only through its public headers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hh"
#include "recshard/datagen/dataset.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/routing/router.hh"
#include "recshard/sharding/plan.hh"

namespace perfbench {

/**
 * Data seed of every workload's planning profile. Plans are solved
 * from this fixed sample, so every run solves the same instance:
 * the recshard local search takes between 8 and 158 steps (0.5 to
 * 17 s on train-rm) depending on which seed's sample it profiles,
 * which would make plan_s a property of the seed rather than of the
 * code. --seed drives the data that is replayed or served.
 */
constexpr std::uint64_t kPlanningSeed = 106;

/** Command-line selection of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Wall time the timed passes should cover. */
    double seconds = 20.0;
    /** Traced run: spans, per-layer probes, per-layer metrics. */
    bool trace = false;
    /** Directory the span file is written to. */
    std::string outDir = ".bench_out";
};

/** Everything a run reports. */
struct RunReport
{
    Checks checks;
    /** End-to-end metrics (untraced) or per-layer (traced). */
    Metrics metrics;
};

RunReport runTrainRm(const RunOptions &opts);
/** Also serves a drifting trace through LiveReplanServer in its
 *  traced run, which measures the replan layer. */
RunReport runServe3Tier(const RunOptions &opts);

/** Names accepted by --workload, as BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

// ------------------------------------------------- cluster-workload parts

/** Arrival stamps of a trace, in query order. */
std::vector<double> arrivalStamps(const recshard::RoutedTrace &trace);

/**
 * Set every query's arrival to base[i] * scale. Rates are changed
 * this way so every rate point replays the identical lookups; only
 * the spacing of arrivals moves.
 */
void rescaleArrivals(recshard::RoutedTrace &trace,
                     const std::vector<double> &base, double scale);

/**
 * Bisection for the highest rate in [lo, hi] that `meets` accepts,
 * assuming `meets` is monotone (true below some rate, false above).
 * Returns lo when even lo fails the predicate, and evaluates `meets`
 * exactly `steps` times after checking lo.
 */
double slaRateSearch(const std::function<bool(double)> &meets,
                     double lo, double hi, unsigned steps);

/**
 * The served-SLA predicate behind sla_qps: served p99 within the
 * SLA, nothing shed, and the backlog drained within one SLA of the
 * last arrival.
 */
bool meetsSla(const recshard::RoutingReport &report,
              double arrival_span_seconds);

/** offered == full + degraded + shed. */
bool conserves(const recshard::RoutingReport &report);

// -------------------------------------------------------- layer probes

/** The inputs of the per-layer probes (all borrowed). */
struct ProbeInputs
{
    const recshard::SyntheticDataset *data = nullptr;
    const recshard::RoutedTrace *trace = nullptr;
    const recshard::ShardingPlan *plan = nullptr;
    const std::vector<recshard::TierResolver> *resolvers = nullptr;
    recshard::SystemSpec system;
    /** Samples per SyntheticDataset::batch call. */
    std::uint32_t batchSize = 256;
};

/**
 * Time single public calls from outside on the workload's own
 * inputs, each inside a span, and add one ns-per-op metric plus its
 * call count per layer. ExecutionEngine::replay, Router::route and
 * LiveReplanServer::serve are timed per call on a one-node cluster
 * of `plan`, only where `out` does not already hold the workload's
 * own timing of that layer.
 */
void runLayerProbes(const ProbeInputs &in, Tracer &tracer,
                    Metrics &out);

/** The per-layer metric names every traced run prints, with units;
 *  layers a workload never calls print 0. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetricNames();

/** Fill in every per-layer metric the workload did not set with 0,
 *  so every traced run prints the same names. */
void completePerLayer(Metrics &metrics);

/** Print the self-time table of passes [first_pass, last_pass],
 *  write the span file, and record the span count in `out`. */
void emitTrace(const RunOptions &opts, const Tracer &tracer,
               std::uint32_t first_pass, std::uint32_t last_pass,
               Metrics &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
