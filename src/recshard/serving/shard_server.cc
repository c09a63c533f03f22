#include "recshard/serving/shard_server.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/**
 * The server's admission policy, built over the CDFs of its own
 * tables only: a server never looks up another GPU's rows, and a
 * null CDF admits nothing, so nulling the rest changes no decision
 * and keeps the cdf-gated bitsets at one copy per node.
 */
std::unique_ptr<CacheAdmission>
makeLocalAdmission(std::uint32_t gpu, const ShardingPlan &plan,
                   const ShardServerConfig &config)
{
    if (config.cacheRows == 0)
        return nullptr;
    CacheAdmissionConfig local = config.admission;
    for (std::size_t j = 0; j < local.cdfs.size(); ++j)
        if (j >= plan.tables.size() || plan.tables[j].gpu != gpu)
            local.cdfs[j] = nullptr;
    return makeCacheAdmission(local, config.cacheRows);
}

} // namespace

ShardServer::ShardServer(std::uint32_t gpu, const ModelSpec &model_,
                         const ShardingPlan &plan,
                         const std::vector<TierResolver> &resolvers_,
                         const EmbCostModel &cost_,
                         ShardServerConfig config)
    : gpuV(gpu), model(model_), resolvers(resolvers_),
      cost(cost_), cfg(config),
      admission(makeLocalAdmission(gpu, plan, config)),
      lru(config.cacheRows, admission.get()),
      tierTotals(cost_.numTiers(), 0),
      tierCounts(cost_.numTiers(), 0),
      tierBytes(cost_.numTiers(), 0)
{
    fatal_if(resolvers.size() != plan.tables.size(),
             "plan has ", plan.tables.size(), " tables but ",
             resolvers.size(), " resolvers");
    for (std::uint32_t j = 0; j < plan.tables.size(); ++j)
        if (plan.tables[j].gpu == gpuV)
            features.push_back(j);
}

BatchExecution
ShardServer::execute(
    const MicroBatch &batch,
    const std::vector<std::vector<std::uint64_t>> &lookups,
    const std::vector<std::uint32_t> *prefix)
{
    panic_if(lookups.size() != model.features.size(),
             "batch carries ", lookups.size(), " lookup lists for ",
             model.features.size(), " features");
    panic_if(prefix && prefix->size() != lookups.size(),
             "batch carries ", prefix->size(),
             " lookup limits for ", lookups.size(), " features");
    BatchExecution exec;
    exec.readyTime = batch.closeTime;

    // Each lookup is charged to the tier its resolver places it in
    // (on two-tier resolvers tierOf(row) == 0 exactly when
    // inHbm(row)); the LRU absorbs cold misses at HBM speed.
    const std::size_t T = cost.numTiers();
    std::fill(tierBytes.begin(), tierBytes.end(), 0);
    for (const std::uint32_t j : features) {
        const TierResolver &res = resolvers[j];
        const std::uint64_t row_bytes = model.features[j].rowBytes();
        std::fill(tierCounts.begin(), tierCounts.end(), 0);
        const std::size_t end =
            prefix ? (*prefix)[j] : lookups[j].size();
        panic_if(end > lookups[j].size(), "feature ", j,
                 " limited to ", end, " of ", lookups[j].size(),
                 " lookups");
        for (std::size_t i = 0; i < end; ++i) {
            const std::uint64_t idx = lookups[j][i];
            const std::uint8_t tier = res.tierOf(idx);
            panic_if(tier >= T, "EMB ", j, " row ", idx,
                     " resolves to tier ", static_cast<unsigned>(tier),
                     " but the system has ", T);
            if (tier == 0) {
                ++tierCounts[0];
                ++exec.hbmAccesses;
            } else if (lru.touch(LruRowCache::rowKey(j, idx))) {
                ++tierCounts[0];
                ++exec.cacheHits;
            } else {
                ++tierCounts[tier];
                ++exec.uvmAccesses;
            }
        }
        for (std::size_t t = 0; t < T; ++t) {
            // A near-data tier ships one reduced vector per pooled
            // bag instead of every row (RecSSD/RecNMP in-situ
            // pooling).
            const std::uint64_t moved =
                t > 0 && T > 2 && cost.tierNearData(t)
                ? std::min<std::uint64_t>(tierCounts[t],
                                          batch.totalSamples())
                : tierCounts[t];
            tierBytes[t] += moved * row_bytes;
            tierTotals[t] += tierCounts[t];
        }
    }
    // Two-tier specs keep the paper's price: timeTiered() charges
    // each tier's accessLatency and near-data pooling and time()
    // charges neither, so a two-tier spec built with fromTiers would
    // change price through timeTiered().
    exec.serviceSeconds =
        (T <= 2 ? cost.time(tierBytes[0], tierBytes[1])
                : cost.timeTiered(tierBytes)) +
        cfg.batchOverheadSeconds;
    exec.startTime = std::max(exec.readyTime, freeTime);
    exec.finishTime = exec.startTime + exec.serviceSeconds;
    freeTime = exec.finishTime;
    busy += exec.serviceSeconds;
    return exec;
}

ShardServerPool::ShardServerPool(
    const ModelSpec &model, const ShardingPlan &plan,
    const std::vector<TierResolver> &resolvers,
    const SystemSpec &system, ShardServerConfig config)
    : cost(system)
{
    plan.validate(model, system);
    fleet.reserve(system.numGpus);
    for (std::uint32_t m = 0; m < system.numGpus; ++m)
        fleet.emplace_back(m, model, plan, resolvers, cost, config);
}

BatchCompletion
ShardServerPool::executeOne(
    const MicroBatch &batch,
    const std::vector<std::vector<std::uint64_t>> &lookups,
    const std::vector<std::uint32_t> *prefix)
{
    BatchCompletion c;
    for (ShardServer &server : fleet) {
        const BatchExecution e =
            server.execute(batch, lookups, prefix);
        c.finishTime = std::max(c.finishTime, e.finishTime);
        c.hbmAccesses += e.hbmAccesses;
        c.uvmAccesses += e.uvmAccesses;
        c.cacheHits += e.cacheHits;
    }
    return c;
}

double
ShardServerPool::busySeconds() const
{
    double busy = 0.0;
    for (const ShardServer &server : fleet)
        busy += server.busySeconds();
    return busy;
}

} // namespace recshard
