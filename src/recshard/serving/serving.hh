/**
 * @file
 * Online serving evaluation: SLA-aware plan comparison under live
 * traffic.
 *
 * Ties the serving subsystem together: a LoadGenerator synthesizes
 * a query-arrival trace, the BatchScheduler coalesces it into
 * micro-batches, a ShardServerPool executes the batches against a
 * sharding plan (tier resolution, LRU hot-row cache, cost-model
 * service times), and ServingMetrics reduces the results to
 * throughput and tail-latency numbers. The whole evaluation is one
 * loop over the sealed batches on the caller's thread; every
 * latency is virtual time.
 *
 * serveTrafficComparison() evaluates several plans against the
 * *identical* generated trace, so differences are attributable to
 * the plans alone — the serving-side analogue of the offline
 * engine's shared-trace replay.
 */

#ifndef RECSHARD_SERVING_SERVING_HH
#define RECSHARD_SERVING_SERVING_HH

#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/memsim/system_spec.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/serving/load_generator.hh"
#include "recshard/serving/metrics.hh"
#include "recshard/serving/scheduler.hh"
#include "recshard/serving/shard_server.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/** Everything one serving evaluation needs. */
struct ServingConfig
{
    LoadConfig load;
    BatchingConfig batching;
    ShardServerConfig server;
    /** Queries to generate and serve. */
    std::uint64_t numQueries = 2000;
    /** Latency SLA violations are scored against. */
    double slaSeconds = 0.005;
};

/**
 * Serve a generated traffic trace through one plan.
 *
 * @param data      Lookup source (defines the model).
 * @param plan      Plan to evaluate (validated against `system`).
 * @param resolvers Per-EMB tier resolvers for the plan (see
 *                  ExecutionEngine::buildResolvers).
 * @param system    Target system (GPU count, bandwidths).
 * @param config    Load, batching, cache, and SLA controls.
 */
ServingReport serveTraffic(const SyntheticDataset &data,
                           const ShardingPlan &plan,
                           const std::vector<TierResolver> &resolvers,
                           const SystemSpec &system,
                           const ServingConfig &config);

/**
 * Serve the *same* traffic trace through several plans and report
 * each; plan order is preserved.
 */
std::vector<ServingReport>
serveTrafficComparison(const SyntheticDataset &data,
                       const std::vector<const ShardingPlan *> &plans,
                       const std::vector<std::vector<TierResolver>>
                           &resolvers,
                       const SystemSpec &system,
                       const ServingConfig &config);

/**
 * Serve the *same* traffic trace through one plan under several
 * per-server configurations (cache capacities, admission policies)
 * — the server-side analogue of serveTrafficComparison, so cache
 * admission policies are comparable the same way planners are.
 * Report order matches `servers`; each report's strategy is
 * suffixed "/<admission policy>" when its cache is enabled.
 */
std::vector<ServingReport>
serveServerComparison(const SyntheticDataset &data,
                      const ShardingPlan &plan,
                      const std::vector<TierResolver> &resolvers,
                      const SystemSpec &system,
                      const ServingConfig &config,
                      const std::vector<ShardServerConfig> &servers);

} // namespace recshard

#endif // RECSHARD_SERVING_SERVING_HH
