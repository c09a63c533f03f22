/**
 * @file
 * Tests for the trace-replay execution engine: tier accounting,
 * timing statistics, and cross-plan traffic conservation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/sharding/recshard_solver.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

struct Fixture
{
    ModelSpec model;
    SyntheticDataset data;
    std::vector<EmbProfile> profiles;
    SystemSpec sys;

    explicit Fixture(std::uint32_t gpus = 2, std::uint64_t seed = 7)
        : model(makeTinyModel(6, 2000, seed)), data(model, seed + 1),
          profiles(profileDataset(data, 10000, 2048)),
          sys(SystemSpec::paper(gpus, 1.0))
    {
    }
};

/** A plan putting every table wholly in one tier on round-robin GPUs. */
ShardingPlan
uniformPlan(const ModelSpec &model, std::uint32_t gpus, bool in_hbm)
{
    ShardingPlan plan;
    plan.strategy = in_hbm ? "all-hbm" : "all-uvm";
    plan.tables.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        plan.tables[j].gpu = j % gpus;
        plan.tables[j].hbmRows = in_hbm ? model.features[j].hashSize
                                        : 0;
        plan.tables[j].hbmAccessFraction = in_hbm ? 1.0 : 0.0;
    }
    return plan;
}

TEST(Engine, AllHbmPlanHasNoUvmTraffic)
{
    Fixture fx;
    const ShardingPlan plan = uniformPlan(fx.model, 2, true);
    ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    ReplayConfig cfg;
    cfg.batchSize = 512;
    cfg.warmupIterations = 1;
    cfg.measureIterations = 4;

    const auto results = engine.replay(
        {&plan},
        {ExecutionEngine::buildResolvers(fx.model, plan,
                                         fx.profiles)},
        cfg);
    ASSERT_EQ(results.size(), 1u);
    const ReplayResult &r = results[0];
    EXPECT_EQ(r.uvmAccessesPerGpuIter(), 0.0);
    EXPECT_GT(r.hbmAccessesPerGpuIter(), 0.0);
    EXPECT_EQ(r.uvmAccessFraction(), 0.0);
    EXPECT_EQ(r.iterations, 4u);
}

TEST(Engine, AllUvmPlanHasNoHbmTraffic)
{
    Fixture fx;
    const ShardingPlan plan = uniformPlan(fx.model, 2, false);
    ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    ReplayConfig cfg;
    cfg.batchSize = 512;
    cfg.warmupIterations = 0;
    cfg.measureIterations = 3;

    const auto results = engine.replay(
        {&plan},
        {ExecutionEngine::buildResolvers(fx.model, plan,
                                         fx.profiles)},
        cfg);
    EXPECT_EQ(results[0].hbmAccessesPerGpuIter(), 0.0);
    EXPECT_DOUBLE_EQ(results[0].uvmAccessFraction(), 1.0);
}

TEST(Engine, SameTrafficAcrossPlans)
{
    Fixture fx;
    const ShardingPlan hbm_plan = uniformPlan(fx.model, 2, true);
    const ShardingPlan uvm_plan = uniformPlan(fx.model, 2, false);
    ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    ReplayConfig cfg;
    cfg.batchSize = 256;
    cfg.warmupIterations = 1;
    cfg.measureIterations = 5;

    const auto results = engine.replay(
        {&hbm_plan, &uvm_plan},
        {ExecutionEngine::buildResolvers(fx.model, hbm_plan,
                                         fx.profiles),
         ExecutionEngine::buildResolvers(fx.model, uvm_plan,
                                         fx.profiles)},
        cfg);
    // Both plans replay identical generated traffic: total access
    // counts match exactly.
    auto total = [](const ReplayResult &r) {
        std::uint64_t t = 0;
        for (const auto &g : r.traffic)
            t += g.hbmAccesses + g.uvmAccesses;
        return t;
    };
    EXPECT_EQ(total(results[0]), total(results[1]));
}

TEST(Engine, TimesMatchCostModel)
{
    Fixture fx;
    const ShardingPlan plan = uniformPlan(fx.model, 2, true);
    const EmbCostModel cost(fx.sys);
    ExecutionEngine engine(fx.data, fx.sys, cost);
    ReplayConfig cfg;
    cfg.batchSize = 512;
    cfg.warmupIterations = 0;
    cfg.measureIterations = 1;

    const auto results = engine.replay(
        {&plan},
        {ExecutionEngine::buildResolvers(fx.model, plan,
                                         fx.profiles)},
        cfg);
    const ReplayResult &r = results[0];
    // With one measured iteration, each GPU's mean time must equal
    // the cost model applied to its byte totals.
    for (std::uint32_t m = 0; m < r.gpus; ++m) {
        EXPECT_NEAR(r.gpuMeanTime[m],
                    cost.time(r.traffic[m].hbmBytes,
                              r.traffic[m].uvmBytes),
                    1e-15);
    }
    EXPECT_NEAR(r.meanBottleneckTime, r.gpuTimeSummary.max, 1e-15);
}

TEST(Engine, ImbalancedPlanHasWorseBottleneckAndStddev)
{
    Fixture fx;
    // Balanced: round robin. Imbalanced: everything on GPU 0.
    const ShardingPlan balanced = uniformPlan(fx.model, 2, true);
    ShardingPlan lopsided = uniformPlan(fx.model, 1, true);
    lopsided.strategy = "lopsided";

    ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    ReplayConfig cfg;
    cfg.batchSize = 512;
    cfg.warmupIterations = 1;
    cfg.measureIterations = 4;

    const auto results = engine.replay(
        {&balanced, &lopsided},
        {ExecutionEngine::buildResolvers(fx.model, balanced,
                                         fx.profiles),
         ExecutionEngine::buildResolvers(fx.model, lopsided,
                                         fx.profiles)},
        cfg);
    EXPECT_LT(results[0].meanBottleneckTime,
              results[1].meanBottleneckTime);
    EXPECT_LT(results[0].gpuTimeSummary.stddev,
              results[1].gpuTimeSummary.stddev);
}

TEST(Engine, SplitPlanUvmFractionTracksProfileEstimate)
{
    // One strongly skewed feature, half its hot rows in HBM: the
    // replayed UVM fraction should be close to 1 - pct estimated
    // from the profile CDF.
    ModelSpec model = makeTinyModel(1, 5000, 3);
    model.features[0].alpha = 1.3;
    model.features[0].cardinality = 200000;
    model.features[0].coverage = 1.0;
    model.features[0].meanPool = 20.0;
    SyntheticDataset data(model, 11);
    const auto profiles = profileDataset(data, 30000, 4096);
    const SystemSpec sys = SystemSpec::paper(1, 1.0);

    ShardingPlan plan;
    plan.strategy = "half-split";
    plan.tables.resize(1);
    plan.tables[0].gpu = 0;
    plan.tables[0].hbmRows = profiles[0].cdf.rowsForFraction(0.8);
    plan.tables[0].hbmAccessFraction = 0.8;

    ExecutionEngine engine(data, sys, EmbCostModel(sys));
    ReplayConfig cfg;
    cfg.batchSize = 2048;
    cfg.warmupIterations = 0;
    cfg.measureIterations = 5;
    const auto results = engine.replay(
        {&plan},
        {ExecutionEngine::buildResolvers(model, plan, profiles)},
        cfg);
    EXPECT_NEAR(results[0].uvmAccessFraction(), 0.2, 0.05);
}

/**
 * ExecutionEngine::replay as it ran before it was parallelized: one
 * thread, EMBs in order, warm-up iterations generated, resolved and
 * discarded. The reference for the differential test below.
 */
std::vector<ReplayResult>
serialReplay(const SyntheticDataset &data, const SystemSpec &system,
             const EmbCostModel &cost,
             const std::vector<const ShardingPlan *> &plans,
             const std::vector<std::vector<TierResolver>> &resolvers,
             const ReplayConfig &config)
{
    const ModelSpec &model = data.spec();
    const std::uint32_t J = model.numFeatures();
    const std::uint32_t M = system.numGpus;
    const std::size_t P = plans.size();
    std::vector<ReplayResult> results(P);
    std::vector<std::vector<RunningStat>> gpu_time(
        P, std::vector<RunningStat>(M));
    std::vector<RunningStat> bottleneck(P);
    for (std::size_t p = 0; p < P; ++p) {
        results[p].strategy = plans[p]->strategy;
        results[p].gpus = M;
        results[p].traffic.assign(M, GpuTraffic{});
    }
    const std::uint32_t total_iters = config.warmupIterations +
        config.measureIterations;
    std::vector<std::vector<GpuTraffic>> iter_traffic(
        P, std::vector<GpuTraffic>(M));
    for (std::uint32_t iter = 0; iter < total_iters; ++iter) {
        const bool measured = iter >= config.warmupIterations;
        for (auto &per_plan : iter_traffic)
            std::fill(per_plan.begin(), per_plan.end(),
                      GpuTraffic{});
        for (std::uint32_t j = 0; j < J; ++j) {
            const FeatureBatch fb = data.featureBatch(
                j, config.batchSize, config.firstBatchIndex + iter);
            const std::uint64_t row_bytes =
                model.features[j].rowBytes();
            for (std::size_t p = 0; p < P; ++p) {
                const TierResolver &res = resolvers[p][j];
                std::uint64_t hbm = 0;
                for (const std::uint64_t idx : fb.indices)
                    hbm += res.inHbm(idx);
                const std::uint64_t uvm = fb.indices.size() - hbm;
                GpuTraffic &t = iter_traffic[p][plans[p]->tables[j].gpu];
                t.hbmAccesses += hbm;
                t.uvmAccesses += uvm;
                t.hbmBytes += hbm * row_bytes;
                t.uvmBytes += uvm * row_bytes;
            }
        }
        if (!measured)
            continue;
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

std::uint64_t
bits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(double));
    return b;
}

/** Every field of two replay results, doubles compared bit for bit. */
void
expectSameReplay(const ReplayResult &got, const ReplayResult &want)
{
    EXPECT_EQ(got.strategy, want.strategy);
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.gpus, want.gpus);
    ASSERT_EQ(got.traffic.size(), want.traffic.size());
    ASSERT_EQ(got.gpuMeanTime.size(), want.gpuMeanTime.size());
    for (std::size_t m = 0; m < want.traffic.size(); ++m) {
        EXPECT_EQ(got.traffic[m].hbmAccesses, want.traffic[m].hbmAccesses);
        EXPECT_EQ(got.traffic[m].uvmAccesses, want.traffic[m].uvmAccesses);
        EXPECT_EQ(got.traffic[m].hbmBytes, want.traffic[m].hbmBytes);
        EXPECT_EQ(got.traffic[m].uvmBytes, want.traffic[m].uvmBytes);
        EXPECT_EQ(bits(got.gpuMeanTime[m]), bits(want.gpuMeanTime[m]))
            << "GPU " << m;
    }
    EXPECT_EQ(bits(got.meanBottleneckTime),
              bits(want.meanBottleneckTime));
    EXPECT_EQ(got.gpuTimeSummary.count, want.gpuTimeSummary.count);
    EXPECT_EQ(bits(got.gpuTimeSummary.min), bits(want.gpuTimeSummary.min));
    EXPECT_EQ(bits(got.gpuTimeSummary.max), bits(want.gpuTimeSummary.max));
    EXPECT_EQ(bits(got.gpuTimeSummary.mean),
              bits(want.gpuTimeSummary.mean));
    EXPECT_EQ(bits(got.gpuTimeSummary.stddev),
              bits(want.gpuTimeSummary.stddev));
}

/**
 * A random plan mixing the four resolver kinds buildResolvers
 * makes: whole-table HBM, whole-table UVM, a two-tier split, and an
 * explicit three-tier split.
 */
ShardingPlan
randomPlan(const ModelSpec &model, std::uint32_t gpus, Rng &rng)
{
    ShardingPlan plan;
    plan.strategy = "random-" + std::to_string(rng.uniformInt(0, 999));
    plan.tables.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        EmbPlacement &t = plan.tables[j];
        const std::uint64_t rows = model.features[j].hashSize;
        t.gpu = static_cast<std::uint32_t>(rng.uniformInt(0, gpus - 1));
        switch (rng.uniformInt(0, 3)) {
          case 0: t.hbmRows = rows; break;
          case 1: t.hbmRows = 0; break;
          case 2: t.hbmRows = rng.uniformInt(1, rows - 1); break;
          default: {
            t.hbmRows = rng.uniformInt(0, rows);
            const std::uint64_t dram =
                rng.uniformInt(0, rows - t.hbmRows);
            t.tierRows = {t.hbmRows, dram, rows - t.hbmRows - dram};
          }
        }
    }
    return plan;
}

TEST(Engine, ParallelReplayMatchesSequentialReference)
{
    Rng rng(20240611);
    std::uint32_t tiered_tables = 0;
    for (std::uint64_t c = 0; c < 14; ++c) {
        const auto J = static_cast<std::uint32_t>(
            c == 0 ? 1 : (c == 1 ? 40 : rng.uniformInt(1, 40)));
        const auto gpus = static_cast<std::uint32_t>(
            rng.uniformInt(1, 4));
        const std::uint64_t seed = 100 + c;
        const ModelSpec model =
            makeTinyModel(J, rng.uniformInt(200, 3000), seed);
        const SyntheticDataset data(model, seed * 7 + 1);
        const auto profiles = profileDataset(data, 1500, 512);
        // Every tier holds the whole model, so any split fits.
        const std::uint64_t all = model.totalBytes();
        const SystemSpec sys = threeTierNode(gpus, all, all, all);
        const EmbCostModel cost(sys);

        const auto P = static_cast<std::size_t>(rng.uniformInt(1, 3));
        std::vector<ShardingPlan> plans;
        for (std::size_t p = 0; p < P; ++p)
            plans.push_back(randomPlan(model, gpus, rng));
        std::vector<const ShardingPlan *> ptrs;
        std::vector<std::vector<TierResolver>> resolvers;
        for (const ShardingPlan &plan : plans) {
            ptrs.push_back(&plan);
            resolvers.push_back(
                ExecutionEngine::buildResolvers(model, plan, profiles));
            for (const EmbPlacement &t : plan.tables)
                tiered_tables += t.tiered();
        }

        ReplayConfig cfg;
        cfg.batchSize = static_cast<std::uint32_t>(
            rng.uniformInt(16, 300));
        cfg.warmupIterations = static_cast<std::uint32_t>(
            rng.uniformInt(0, 2));
        cfg.measureIterations = static_cast<std::uint32_t>(
            rng.uniformInt(1, 4));
        cfg.firstBatchIndex = rng.uniformInt(0, 50);

        const ExecutionEngine engine(data, sys, cost);
        const auto got = engine.replay(ptrs, resolvers, cfg);
        const auto want =
            serialReplay(data, sys, cost, ptrs, resolvers, cfg);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t p = 0; p < P; ++p) {
            SCOPED_TRACE("case " + std::to_string(c) + " plan " +
                         std::to_string(p));
            expectSameReplay(got[p], want[p]);
        }
    }
    EXPECT_GT(tiered_tables, 0u);
}

TEST(Engine, WarmupOnlyShiftsTheMeasuredWindow)
{
    Fixture fx;
    const ShardingPlan plan = uniformPlan(fx.model, 2, false);
    const ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    const std::vector<std::vector<TierResolver>> resolvers = {
        ExecutionEngine::buildResolvers(fx.model, plan, fx.profiles)};
    ReplayConfig warm;
    warm.batchSize = 256;
    warm.warmupIterations = 2;
    warm.measureIterations = 3;
    warm.firstBatchIndex = 5;
    ReplayConfig cold = warm;
    cold.warmupIterations = 0;
    cold.firstBatchIndex = 7;
    expectSameReplay(engine.replay({&plan}, resolvers, warm)[0],
                     engine.replay({&plan}, resolvers, cold)[0]);
}

TEST(Engine, RejectsMismatchedInputs)
{
    Fixture fx;
    const ShardingPlan plan = uniformPlan(fx.model, 2, true);
    ExecutionEngine engine(fx.data, fx.sys, EmbCostModel(fx.sys));
    ReplayConfig cfg;
    EXPECT_EXIT(engine.replay({&plan}, {}, cfg),
                ::testing::ExitedWithCode(1), "resolver");
    EXPECT_EXIT(engine.replay({}, {}, cfg),
                ::testing::ExitedWithCode(1), "no plans");
}

} // namespace
