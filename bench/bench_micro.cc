/**
 * @file
 * Microbenchmarks (google-benchmark) for the performance-critical
 * primitives: hashing, Zipf sampling, batch generation, CDF
 * construction, remap application, tier resolution, the serving
 * cache's touch, the solver's split kernel, a cluster's node
 * solves, the worker team's dispatch, and a full engine iteration.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "recshard/base/parallel.hh"
#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/dist/frequency_cdf.hh"
#include "recshard/dist/zipf.hh"
#include "recshard/engine/execution.hh"
#include "recshard/hashing/hashers.hh"
#include "recshard/lp/simplex.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/serving/lru_cache.hh"
#include "recshard/sharding/cluster_plan.hh"
#include "recshard/sharding/recshard_solver.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

void
BM_MixSplitMix64(benchmark::State &state)
{
    std::uint64_t x = 12345;
    for (auto _ : state) {
        x = mixSplitMix64(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_MixSplitMix64);

void
BM_FeatureHasher(benchmark::State &state)
{
    const FeatureHasher hasher(1'000'003, 42);
    std::uint64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hasher(v++));
    }
}
BENCHMARK(BM_FeatureHasher);

/** One Zipf draw; Args are the support and alpha in thousandths:
 *  1.1 is head-heavy (most draws hit the guide table), 0.7 is
 *  tail-heavy (most draws run rejection-inversion). */
void
BM_ZipfSample(benchmark::State &state)
{
    const ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)),
                           static_cast<double>(state.range(1)) / 1000.0);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf(rng));
    }
}
BENCHMARK(BM_ZipfSample)
    ->ArgsProduct({{1 << 16, 1 << 24, 1LL << 32}, {1100, 700}});

void
BM_FeatureBatchGeneration(benchmark::State &state)
{
    const ModelSpec model = makeTinyModel(1, 100000, 3);
    SyntheticDataset data(model, 5);
    std::uint64_t batch_idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            data.featureBatch(0, 1024, batch_idx++));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FeatureBatchGeneration);

/**
 * The unit perfbench train-rm's replay draws per iteration: one
 * 256-sample batch of every RM3-at-1/32 feature, timed per lookup.
 */
void
BM_FeatureBatchRm3(benchmark::State &state)
{
    const SyntheticDataset data(makeRm3(1.0 / 32.0), 106);
    std::uint64_t batch_idx = 0, lookups = 0;
    for (auto _ : state) {
        for (std::uint32_t j = 0; j < data.spec().numFeatures(); ++j) {
            const FeatureBatch fb = data.featureBatch(j, 256, batch_idx);
            lookups += fb.numLookups();
            benchmark::DoNotOptimize(fb.indices.data());
        }
        benchmark::ClobberMemory();
        ++batch_idx;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
}
BENCHMARK(BM_FeatureBatchRm3)->Unit(benchmark::kMillisecond);

/**
 * FrequencyCdf construction, reported as ns per touched row. Arg 0 >
 * 0 is that many rows with uniform counts in [1, 2^20]. Arg 0 = 0
 * is profile-shaped: the pairs an EmbProfiler hands the constructor
 * after 4096 Zipf samples of RM3's largest EMB at 1/32 (mostly 1s
 * and 2s, row-ascending).
 */
void
BM_FrequencyCdfBuild(benchmark::State &state)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    std::uint64_t hash_size = 0;
    if (state.range(0) > 0) {
        const std::uint64_t touched = state.range(0);
        hash_size = touched * 2;
        Rng rng(11);
        for (std::uint64_t r = 0; r < touched; ++r)
            counts.push_back({r, static_cast<std::uint64_t>(
                                     rng.uniformInt(1, 1 << 20))});
    } else {
        const ModelSpec model = makeRm3(1.0 / 32);
        const SyntheticDataset data(model, 5);
        std::uint32_t j = 0;
        for (std::uint32_t f = 1; f < model.numFeatures(); ++f)
            if (model.features[f].hashSize > model.features[j].hashSize)
                j = f;
        hash_size = model.features[j].hashSize;
        EmbProfiler emb(hash_size);
        emb.add(data.featureBatch(j, 4096, 1ULL << 40));
        const FrequencyCdf cdf = emb.finish().cdf;
        for (std::uint64_t k = 0; k < cdf.touchedRows(); ++k)
            counts.push_back({cdf.rankedRows()[k], cdf.countAtRank(k)});
        std::sort(counts.begin(), counts.end());
    }
    for (auto _ : state) {
        auto copy = counts;
        benchmark::DoNotOptimize(
            FrequencyCdf(hash_size, std::move(copy)));
    }
    state.SetItemsProcessed(state.iterations() * counts.size());
    state.counters["rows"] = static_cast<double>(counts.size());
    state.counters["per_row"] = benchmark::Counter(
        static_cast<double>(counts.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FrequencyCdfBuild)->Arg(1 << 12)->Arg(1 << 18)->Arg(0);

void
BM_RemapApply(benchmark::State &state)
{
    FeatureSpec spec;
    spec.name = "bench";
    spec.cardinality = 1 << 20;
    spec.hashSize = 1 << 19;
    spec.dim = 64;
    Rng rng(3);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < (1 << 17); ++r)
        counts.push_back({r * 3, static_cast<std::uint64_t>(
                                     rng.uniformInt(1, 1000))});
    const FrequencyCdf cdf(spec.hashSize, counts);
    const RemapTable table = RemapTable::build(spec, cdf, 1 << 16);

    std::vector<std::uint64_t> indices(8192);
    for (auto &idx : indices)
        idx = static_cast<std::uint64_t>(
            rng.uniformInt(0, spec.hashSize - 1));
    for (auto _ : state) {
        auto copy = indices;
        table.remapIndices(copy);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * indices.size());
}
BENCHMARK(BM_RemapApply);

void
BM_TierResolve(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < (1 << 16); ++r)
        counts.push_back({r * 2, static_cast<std::uint64_t>(
                                     rng.uniformInt(1, 100))});
    const FrequencyCdf cdf(1 << 18, counts);
    const TierResolver resolver =
        TierResolver::split(cdf, 1 << 15, 1 << 18);
    std::uint64_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            resolver.inHbm(row++ & ((1 << 18) - 1)));
    }
}
BENCHMARK(BM_TierResolve);

/**
 * LruRowCache::touch over a Zipf-skewed stream of (table, row) keys.
 * Arg 0 is the capacity in rows; Arg 1 = 1 fronts the cache with
 * "cdf-gated" admission built from a profile of the same
 * distribution. {500, 1} is the serving workload's per-GPU cache;
 * {4096, 0} is a plain LRU at perfbench's probe size.
 */
void
BM_LruTouch(benchmark::State &state)
{
    constexpr std::uint32_t kTables = 8;
    constexpr std::uint64_t kRows = 1 << 18;
    constexpr std::size_t kKeys = 1 << 20;
    const auto capacity = static_cast<std::uint64_t>(state.range(0));
    const ZipfSampler zipf(kRows, 1.05);
    Rng rng(17);

    std::vector<FrequencyCdf> cdfs;
    std::vector<const FrequencyCdf *> cdfPtrs;
    if (state.range(1)) {
        std::vector<std::uint64_t> counts(kRows);
        for (std::uint32_t t = 0; t < kTables; ++t) {
            std::fill(counts.begin(), counts.end(), 0);
            for (std::size_t i = 0; i < kKeys / kTables; ++i)
                ++counts[zipf(rng)];
            std::vector<std::pair<std::uint64_t, std::uint64_t>> touched;
            for (std::uint64_t r = 0; r < kRows; ++r)
                if (counts[r])
                    touched.push_back({r, counts[r]});
            cdfs.emplace_back(kRows, std::move(touched));
        }
        for (const FrequencyCdf &cdf : cdfs)
            cdfPtrs.push_back(&cdf);
    }
    std::unique_ptr<CacheAdmission> admission;
    if (!cdfPtrs.empty()) {
        CacheAdmissionConfig cfg;
        cfg.policy = "cdf-gated";
        cfg.cdfs = cdfPtrs;
        admission = makeCacheAdmission(cfg, capacity);
    }

    std::vector<std::uint64_t> keys(kKeys);
    for (std::uint64_t &key : keys)
        key = LruRowCache::rowKey(
            static_cast<std::uint32_t>(rng.uniformInt(0, kTables - 1)),
            zipf(rng));
    LruRowCache cache(capacity, admission.get());
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.touch(keys[i]));
        i = (i + 1) & (kKeys - 1);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] = cache.hitRate();
}
BENCHMARK(BM_LruTouch)->Args({500, 1})->Args({4096, 0});

void
BM_SimplexSolve(benchmark::State &state)
{
    // A dense-ish random LP of the size B&B nodes see.
    const int n = state.range(0);
    Rng rng(9);
    LpProblem lp;
    for (int j = 0; j < n; ++j)
        lp.addVariable(0, 1, -rng.uniform(0.1, 2.0));
    for (int i = 0; i < n; ++i) {
        std::vector<LinearTerm> terms;
        for (int j = 0; j < n; ++j)
            terms.push_back({j, rng.uniform(0.0, 1.0)});
        lp.addConstraint(terms, Relation::LE, rng.uniform(1, 4));
    }
    const SimplexSolver solver(lp);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64);

/**
 * One recShardPlan solve. Arg 16 and 64 are tiny models on 4 GPUs;
 * Arg 397 is shaped like perfbench train-rm: RM3 at 1/32 with a
 * 4096-sample profile of the planning seed (106) on 16 GPUs at
 * batch 256. Every profile is built outside the timed loop.
 */
void
BM_RecShardSolve(benchmark::State &state)
{
    const auto features = static_cast<std::uint32_t>(state.range(0));
    ModelSpec model;
    std::vector<EmbProfile> profiles;
    SystemSpec sys;
    RecShardOptions opts;
    if (features == kRmNumFeatures) {
        constexpr double kScale = 1.0 / 32;
        model = makeRm3(kScale);
        profiles = profileDataset(SyntheticDataset(model, 106), 4096);
        sys = SystemSpec::paper(16, kScale);
        opts.batchSize = 256;
    } else {
        model = makeTinyModel(features, 20000, 13);
        profiles = profileDataset(SyntheticDataset(model, 5), 8000,
                                  4096);
        sys = SystemSpec::paper(4, 1.0);
        sys.hbm.capacityBytes = model.totalBytes() / 10;
        sys.uvm.capacityBytes = model.totalBytes();
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            recShardPlan(model, profiles, sys, opts));
    }
}
BENCHMARK(BM_RecShardSolve)->Arg(16)->Arg(64)->Arg(397)
    ->Unit(benchmark::kMillisecond);

/**
 * One parallelFor of 4 trivial items, wall time: what a call costs
 * before any item does work. The solver's team thresholds
 * (kParallelMinEmbs, kParallelMinSwaps) weigh their items against it.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    std::atomic<std::size_t> sum{0};
    for (auto _ : state)
        parallelFor(4, [&](std::size_t i) { sum.fetch_add(i); });
    benchmark::DoNotOptimize(sum.load());
}
BENCHMARK(BM_ParallelForDispatch)->UseRealTime();

/**
 * solveNodePlans shaped like perfbench serve-3tier: 16 tables of
 * 20000 rows at dim 128 on 3 nodes of threeTierNode(2, ...) with HBM
 * 10% / DRAM 25% / SSD 100% of the model per node, from a
 * 30000-sample profile of seed 106. Wall time, as the node solves
 * run on the worker team.
 */
void
BM_SolveNodePlans(benchmark::State &state)
{
    ModelSpec model = makeTinyModel(16, 20000, 7);
    for (auto &f : model.features)
        f.dim = 128;
    const auto per_gpu = [&](double frac) {
        return static_cast<std::uint64_t>(
            static_cast<double>(model.totalBytes()) * frac / 2);
    };
    const SystemSpec node = threeTierNode(2, per_gpu(0.10),
                                          per_gpu(0.25), per_gpu(1.0),
                                          false);
    const auto profiles =
        profileDataset(SyntheticDataset(model, 106), 30000);
    ClusterPlanOptions cp;
    cp.numNodes = 3;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            solveNodePlans(model, profiles, node, cp));
}
BENCHMARK(BM_SolveNodePlans)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_EngineIteration(benchmark::State &state)
{
    const ModelSpec model = makeTinyModel(8, 5000, 3);
    SyntheticDataset data(model, 5);
    const auto profiles = profileDataset(data, 5000, 2048);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    ShardingPlan plan;
    plan.strategy = "bench";
    plan.tables.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        plan.tables[j].gpu = j % 2;
        plan.tables[j].hbmRows = model.features[j].hashSize / 2;
    }
    ExecutionEngine engine(data, sys, EmbCostModel(sys));
    const auto resolvers =
        ExecutionEngine::buildResolvers(model, plan, profiles);
    ReplayConfig cfg;
    cfg.batchSize = 1024;
    cfg.warmupIterations = 0;
    cfg.measureIterations = 1;
    for (auto _ : state) {
        cfg.firstBatchIndex += 1;
        benchmark::DoNotOptimize(
            engine.replay({&plan}, {resolvers}, cfg));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineIteration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
