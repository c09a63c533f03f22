#include "recshard/serving/serving.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/**
 * A fully materialized traffic trace: sealed micro-batches plus
 * every embedding lookup they trigger. Lookups are plan-independent
 * (they depend only on the data stream and the queries), so one
 * trace is generated once and shared across every plan evaluated
 * against it — the dominant Zipf-sampling cost is paid once, not
 * once per plan. Memory is linear in total lookups (~8 bytes each).
 */
struct ServingTrace
{
    std::vector<MicroBatch> batches;
    /** lookups[b][j]: row ids feature j reads for batch b, in
     *  query-major order. */
    std::vector<std::vector<std::vector<std::uint64_t>>> lookups;
};

/** Generate and batch one trace under the config's load policy. */
ServingTrace
generateTrace(const SyntheticDataset &data,
              const ServingConfig &config)
{
    fatal_if(config.numQueries == 0, "need at least one query");
    LoadGenerator generator(config.load);
    BatchScheduler scheduler(config.batching);
    for (std::uint64_t i = 0; i < config.numQueries; ++i)
        scheduler.admit(generator.next());
    scheduler.flush();

    ServingTrace trace;
    trace.batches = scheduler.takeBatches();

    // Materialize every lookup once; each plan evaluation reuses
    // them, paying the Zipf-sampling cost a single time.
    const std::uint32_t J = data.spec().numFeatures();
    trace.lookups.resize(trace.batches.size());
    for (std::size_t b = 0; b < trace.batches.size(); ++b) {
        auto &per_feature = trace.lookups[b];
        per_feature.resize(J);
        for (const Query &q : trace.batches[b].queries) {
            for (std::uint32_t j = 0; j < J; ++j) {
                const FeatureBatch fb =
                    data.featureBatch(j, q.samples, q.batchIndex);
                per_feature[j].insert(per_feature[j].end(),
                                      fb.indices.begin(),
                                      fb.indices.end());
            }
        }
    }
    return trace;
}

/** Run one plan over a materialized trace; reduce to a report. */
ServingReport
serveTrace(const SyntheticDataset &data, const ShardingPlan &plan,
           const std::vector<TierResolver> &resolvers,
           const SystemSpec &system, const ServingConfig &config,
           const ServingTrace &trace,
           const std::string &strategy_name)
{
    ShardServerPool pool(data.spec(), plan, resolvers, system,
                         config.server);
    ServingMetrics metrics;
    for (std::size_t b = 0; b < trace.batches.size(); ++b) {
        const MicroBatch &batch = trace.batches[b];
        const BatchCompletion done =
            pool.executeOne(batch, trace.lookups[b]);
        metrics.recordBatch(batch.queries.size());
        metrics.recordTraffic(done.hbmAccesses, done.uvmAccesses,
                              done.cacheHits);
        for (const Query &q : batch.queries)
            metrics.recordQuery(q.arrival, done.finishTime,
                                q.samples);
    }
    return metrics.report(strategy_name, config.slaSeconds,
                          system.numGpus, pool.busySeconds());
}

/** Fail fast on a bad admission-policy name. */
void
validateAdmissionPolicy(const ShardServerConfig &server)
{
    const auto &policies = cacheAdmissionPolicyNames();
    fatal_if(std::find(policies.begin(), policies.end(),
                       server.admission.policy) == policies.end(),
             "unknown cache admission policy '",
             server.admission.policy, "'");
}

} // namespace

ServingReport
serveTraffic(const SyntheticDataset &data, const ShardingPlan &plan,
             const std::vector<TierResolver> &resolvers,
             const SystemSpec &system, const ServingConfig &config)
{
    return serveTrafficComparison(data, {&plan}, {resolvers}, system,
                                  config)
        .front();
}

std::vector<ServingReport>
serveTrafficComparison(
    const SyntheticDataset &data,
    const std::vector<const ShardingPlan *> &plans,
    const std::vector<std::vector<TierResolver>> &resolvers,
    const SystemSpec &system, const ServingConfig &config)
{
    fatal_if(plans.empty(), "no plans to serve");
    fatal_if(resolvers.size() != plans.size(),
             "resolver sets (", resolvers.size(), ") != plans (",
             plans.size(), ")");
    fatal_if(config.slaSeconds < 0.0,
             "latency SLA must be >= 0, got ", config.slaSeconds);
    // Reject a bad admission-policy name before paying for trace
    // materialization (the servers would only fatal later).
    validateAdmissionPolicy(config.server);

    const ServingTrace trace = generateTrace(data, config);

    std::vector<ServingReport> reports;
    reports.reserve(plans.size());
    for (std::size_t p = 0; p < plans.size(); ++p)
        reports.push_back(serveTrace(data, *plans[p], resolvers[p],
                                     system, config, trace,
                                     plans[p]->strategy));
    return reports;
}

std::vector<ServingReport>
serveServerComparison(const SyntheticDataset &data,
                      const ShardingPlan &plan,
                      const std::vector<TierResolver> &resolvers,
                      const SystemSpec &system,
                      const ServingConfig &config,
                      const std::vector<ShardServerConfig> &servers)
{
    fatal_if(servers.empty(), "no server configs to compare");
    fatal_if(config.slaSeconds < 0.0,
             "latency SLA must be >= 0, got ", config.slaSeconds);
    for (const ShardServerConfig &server : servers)
        validateAdmissionPolicy(server);

    const ServingTrace trace = generateTrace(data, config);

    std::vector<ServingReport> reports;
    reports.reserve(servers.size());
    for (const ShardServerConfig &server : servers) {
        ServingConfig one = config;
        one.server = server;
        const std::string name = server.cacheRows
            ? plan.strategy + "/" + server.admission.policy
            : plan.strategy;
        reports.push_back(serveTrace(data, plan, resolvers, system,
                                     one, trace, name));
    }
    return reports;
}

} // namespace recshard
