#include "recshard/engine/execution.hh"

#include <algorithm>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

double
ReplayResult::hbmAccessesPerGpuIter() const
{
    if (gpus == 0 || iterations == 0)
        return 0.0;
    std::uint64_t total = 0;
    for (const auto &t : traffic)
        total += t.hbmAccesses;
    return static_cast<double>(total) /
        (static_cast<double>(gpus) * iterations);
}

double
ReplayResult::uvmAccessesPerGpuIter() const
{
    if (gpus == 0 || iterations == 0)
        return 0.0;
    std::uint64_t total = 0;
    for (const auto &t : traffic)
        total += t.uvmAccesses;
    return static_cast<double>(total) /
        (static_cast<double>(gpus) * iterations);
}

double
ReplayResult::uvmAccessFraction() const
{
    std::uint64_t hbm = 0, uvm = 0;
    for (const auto &t : traffic) {
        hbm += t.hbmAccesses;
        uvm += t.uvmAccesses;
    }
    const std::uint64_t total = hbm + uvm;
    return total ? static_cast<double>(uvm) /
        static_cast<double>(total) : 0.0;
}

ExecutionEngine::ExecutionEngine(const SyntheticDataset &data_,
                                 const SystemSpec &system_,
                                 const EmbCostModel &cost_)
    : data(data_), system(system_), cost(cost_)
{
    system.validate();
}

std::vector<TierResolver>
ExecutionEngine::buildResolvers(const ModelSpec &model,
                                const ShardingPlan &plan,
                                const std::vector<EmbProfile> &profiles)
{
    fatal_if(plan.tables.size() != model.features.size(),
             "plan/model feature count mismatch");
    fatal_if(profiles.size() != model.features.size(),
             "profile/model feature count mismatch");
    std::vector<TierResolver> resolvers;
    resolvers.reserve(plan.tables.size());
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const auto hash_size = model.features[j].hashSize;
        const auto hbm_rows = plan.tables[j].hbmRows;
        if (plan.tables[j].tiered())
            resolvers.push_back(TierResolver::tiered(
                profiles[j].cdf, plan.tables[j].tierRows,
                hash_size));
        else if (hbm_rows >= hash_size)
            resolvers.push_back(TierResolver::allHbm());
        else if (hbm_rows == 0)
            resolvers.push_back(TierResolver::allUvm());
        else
            resolvers.push_back(TierResolver::split(profiles[j].cdf,
                                                    hbm_rows,
                                                    hash_size));
    }
    return resolvers;
}

std::vector<ReplayResult>
ExecutionEngine::replay(
    const std::vector<const ShardingPlan *> &plans,
    const std::vector<std::vector<TierResolver>> &resolvers,
    const ReplayConfig &config) const
{
    const ModelSpec &model = data.spec();
    const std::uint32_t J = model.numFeatures();
    const std::uint32_t M = system.numGpus;
    const std::size_t P = plans.size();
    fatal_if(P == 0, "no plans to replay");
    fatal_if(resolvers.size() != P,
             "resolver sets (", resolvers.size(),
             ") != plans (", P, ")");
    fatal_if(config.measureIterations == 0,
             "need at least one measured iteration");
    fatal_if(config.batchSize == 0, "batch size must be >= 1");
    for (std::size_t p = 0; p < P; ++p) {
        plans[p]->validate(model, system);
        fatal_if(resolvers[p].size() != J,
                 "plan ", p, " has ", resolvers[p].size(),
                 " resolvers for ", J, " EMBs");
    }

    std::vector<ReplayResult> results(P);
    // Per plan, per GPU per-iteration time accumulators.
    std::vector<std::vector<RunningStat>> gpu_time(
        P, std::vector<RunningStat>(M));
    std::vector<RunningStat> bottleneck(P);
    for (std::size_t p = 0; p < P; ++p) {
        results[p].strategy = plans[p]->strategy;
        results[p].gpus = M;
        results[p].traffic.assign(M, GpuTraffic{});
    }

    // Resolvers hold no state, so warm-up iterations would only
    // generate and resolve batches to discard them: skip straight to
    // the first measured batch index.
    const std::uint32_t iters = config.measureIterations;
    const std::uint64_t first_batch = config.firstBatchIndex +
        config.warmupIterations;
    // Work item k = iter * J + j is one EMB of one iteration. It
    // writes only its own slots: its lookup count and, per plan, its
    // HBM hits. The merge below reads them back in (iter, j, plan)
    // order, so every result is independent of the worker count.
    const std::size_t items = static_cast<std::size_t>(iters) * J;
    std::vector<std::uint64_t> item_lookups(items);
    std::vector<std::uint64_t> item_hbm(items * P);
    // One batch buffer per worker, refilled by every item it runs,
    // each on its own cache line: a draw writes its vectors' end
    // pointers with every lookup.
    struct alignas(64) WorkerBatch
    {
        FeatureBatch batch;
    };
    std::vector<WorkerBatch> buffers(parallelWorkers(items));
    parallelFor(items, [&](std::size_t w, std::size_t k) {
        const auto j = static_cast<std::uint32_t>(k % J);
        FeatureBatch &fb = buffers[w].batch;
        data.featureBatch(j, config.batchSize, first_batch + k / J, fb);
        item_lookups[k] = fb.indices.size();
        for (std::size_t p = 0; p < P; ++p) {
            const TierResolver &res = resolvers[p][j];
            std::uint64_t hbm = 0;
            for (const std::uint64_t idx : fb.indices)
                hbm += res.inHbm(idx);
            item_hbm[k * P + p] = hbm;
        }
    });

    // Per plan x GPU per-iteration byte counters, reused each iter.
    std::vector<std::vector<GpuTraffic>> iter_traffic(
        P, std::vector<GpuTraffic>(M));
    for (std::uint32_t iter = 0; iter < iters; ++iter) {
        for (auto &per_plan : iter_traffic)
            std::fill(per_plan.begin(), per_plan.end(),
                      GpuTraffic{});

        for (std::uint32_t j = 0; j < J; ++j) {
            const std::size_t k = static_cast<std::size_t>(iter) * J + j;
            const std::uint64_t row_bytes =
                model.features[j].rowBytes();
            for (std::size_t p = 0; p < P; ++p) {
                const std::uint32_t gpu = plans[p]->tables[j].gpu;
                const std::uint64_t hbm = item_hbm[k * P + p];
                const std::uint64_t uvm = item_lookups[k] - hbm;
                GpuTraffic &t = iter_traffic[p][gpu];
                t.hbmAccesses += hbm;
                t.uvmAccesses += uvm;
                t.hbmBytes += hbm * row_bytes;
                t.uvmBytes += uvm * row_bytes;
            }
        }

        for (std::size_t p = 0; p < P; ++p) {
            double slowest = 0.0;
            for (std::uint32_t m = 0; m < M; ++m) {
                const GpuTraffic &t = iter_traffic[p][m];
                const double seconds = cost.time(t.hbmBytes,
                                                 t.uvmBytes);
                gpu_time[p][m].push(seconds);
                slowest = std::max(slowest, seconds);
                GpuTraffic &total = results[p].traffic[m];
                total.hbmAccesses += t.hbmAccesses;
                total.uvmAccesses += t.uvmAccesses;
                total.hbmBytes += t.hbmBytes;
                total.uvmBytes += t.uvmBytes;
            }
            bottleneck[p].push(slowest);
        }
    }

    for (std::size_t p = 0; p < P; ++p) {
        ReplayResult &r = results[p];
        r.iterations = config.measureIterations;
        r.gpuMeanTime.resize(M);
        for (std::uint32_t m = 0; m < M; ++m)
            r.gpuMeanTime[m] = gpu_time[p][m].mean();
        r.gpuTimeSummary = summarize(r.gpuMeanTime);
        r.meanBottleneckTime = bottleneck[p].mean();
    }
    return results;
}

} // namespace recshard
