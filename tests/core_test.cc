/**
 * @file
 * Integration tests for the end-to-end RecShard pipeline (Fig. 10)
 * and the Section 3.5 re-sharding assessment.
 */

#include <gtest/gtest.h>

#include "recshard/core/pipeline.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/planner/registry.hh"
#include "recshard/report/experiment.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

TEST(Pipeline, EndToEndProducesExecutablePlan)
{
    const ModelSpec model = makeTinyModel(8, 3000, 3);
    SyntheticDataset data(model, 5);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    const RecShardPipeline pipeline(data, sys, opts);
    const PipelineResult result = pipeline.run();

    EXPECT_EQ(result.profiles.size(), model.features.size());
    result.plan.validate(model, sys);
    EXPECT_EQ(result.resolvers.size(), model.features.size());
    EXPECT_GT(result.profileSeconds, 0.0);
    EXPECT_GT(result.solveSeconds, 0.0);

    // Remap storage: 4 bytes per row of every split table.
    std::uint64_t expected = 0;
    for (std::size_t j = 0; j < result.plan.tables.size(); ++j) {
        const auto rows = result.plan.tables[j].hbmRows;
        if (rows > 0 && rows < model.features[j].hashSize)
            expected += model.features[j].hashSize * 4;
    }
    EXPECT_EQ(result.remapStorageBytes, expected);
    EXPECT_GT(expected, 0u) << "capacity pressure should force "
                               "at least one split table";

    // The pipeline's plan beats the greedy baselines end-to-end.
    ExecutionEngine engine(data, sys, EmbCostModel(sys));
    const ShardingPlan base = greedyShard(BaselineCost::Size, model,
                                          result.profiles, sys);
    ReplayConfig cfg;
    cfg.batchSize = 1024;
    cfg.warmupIterations = 1;
    cfg.measureIterations = 4;
    const auto replayed = engine.replay(
        {&result.plan, &base},
        {result.resolvers,
         ExecutionEngine::buildResolvers(model, base,
                                         result.profiles)},
        cfg);
    EXPECT_LT(replayed[0].meanBottleneckTime,
              replayed[1].meanBottleneckTime);
    EXPECT_LT(replayed[0].uvmAccessFraction(),
              replayed[1].uvmAccessFraction());
}

TEST(Pipeline, ServingPhaseAutoWiresCdfGatedAdmission)
{
    const ModelSpec model = makeTinyModel(8, 3000, 3);
    SyntheticDataset data(model, 5);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    opts.evaluateServing = true;
    opts.serving.numQueries = 500;
    opts.serving.server.cacheRows = 200;
    // "cdf-gated" requires per-EMB CDFs; the pipeline must wire
    // its own phase-1 profiles in (it would fatal otherwise).
    opts.serving.server.admission.policy = "cdf-gated";
    opts.serving.server.admission.hotQuantile = 1.0;
    const PipelineResult result =
        RecShardPipeline(data, sys, opts).run();
    EXPECT_EQ(result.serving.queries, 500u);
    EXPECT_GT(result.servingSeconds, 0.0);
}

TEST(Pipeline, PhaseFiveWiresThrough)
{
    const ModelSpec model = makeTinyModel(8, 3000, 3);
    SyntheticDataset data(model, 5);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    opts.evaluateRouting = true;
    opts.routing.numNodes = 2;
    opts.routing.numQueries = 1500;
    opts.routing.load.qps = 2.0e6;
    opts.routing.router.server.cacheRows = 64;
    opts.routing.router.overload.admission.policy = "queue-threshold";
    opts.routing.router.overload.admission.maxOutstanding = 4;
    opts.routing.router.overload.degradation.enabled = true;
    opts.routing.router.overload.degradation.shedPressure = 3.0;
    const PipelineResult result =
        RecShardPipeline(data, sys, opts).run();

    const RoutingReport &r = result.routing;
    EXPECT_EQ(r.admission, "queue-threshold");
    EXPECT_TRUE(r.degradation);
    EXPECT_EQ(r.queries, 1500u);
    EXPECT_EQ(r.fullQueries + r.degradedQueries + r.shedQueries,
              r.queries);
    EXPECT_EQ(r.servedQueries, r.fullQueries + r.degradedQueries);
    // Far past saturation both overload responses engage.
    EXPECT_GT(r.degradedQueries, 0u);
    EXPECT_GT(r.shedQueries, 0u);
    EXPECT_GT(result.routingSeconds, 0.0);
}

TEST(Pipeline, PhaseFiveRejectsUnknownAdmissionBeforeSolving)
{
    const ModelSpec model = makeTinyModel(8, 3000, 3);
    SyntheticDataset data(model, 5);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    opts.evaluateRouting = true;
    // More nodes than tables: solving the cluster would fail with
    // "cannot slice", so the admission error proves the overload
    // config is checked before any node is solved.
    opts.routing.numNodes = 16;
    opts.routing.router.overload.admission.policy = "no-such-policy";
    EXPECT_DEATH(RecShardPipeline(data, sys, opts).run(),
                 "unknown admission controller");
}

TEST(Pipeline, ExactMilpPathOnTinyModel)
{
    const ModelSpec model = makeTinyModel(4, 800, 11);
    SyntheticDataset data(model, 7);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 5;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 10000;
    opts.plannerName = "milp";
    opts.milp.icdfSteps = 5;
    const PipelineResult result =
        RecShardPipeline(data, sys, opts).run();
    result.plan.validate(model, sys);
    EXPECT_EQ(result.plan.strategy, "RecShard-MILP");
    EXPECT_EQ(result.planDiag.planner, "milp");
    EXPECT_GT(result.planDiag.refinementSteps, 0u)
        << "branch-and-bound explored no nodes";
    EXPECT_GT(result.planDiag.bottleneckCost, 0.0);
}

TEST(Pipeline, RejectsZeroSamples)
{
    const ModelSpec model = makeTinyModel(2, 100, 1);
    SyntheticDataset data(model, 1);
    const SystemSpec sys = SystemSpec::paper(1, 1.0);
    PipelineOptions opts;
    opts.profileSamples = 0;
    EXPECT_EXIT(RecShardPipeline(data, sys, opts),
                ::testing::ExitedWithCode(1), "sample");
}

/** Parse one harness flag (`--name value`) into an ExperimentConfig. */
ExperimentConfig
harnessConfig(const std::string &name, const std::string &value)
{
    FlagSet flags("harness");
    ExperimentConfig::addFlags(flags);
    std::string prog = "harness", flag = "--" + name, arg = value;
    char *argv[] = {prog.data(), flag.data(), arg.data()};
    flags.parse(3, argv);
    return ExperimentConfig::fromFlags(flags);
}

TEST(ExperimentConfig, RejectsOutOfRangeCountFlags)
{
    for (const char *name : {"profile-samples", "iters", "batch", "gpus"}) {
        SCOPED_TRACE(name);
        const std::string named = std::string("--") + name;
        EXPECT_EXIT(harnessConfig(name, "-1"),
                    ::testing::ExitedWithCode(1), named);
        EXPECT_EXIT(harnessConfig(name, "0"),
                    ::testing::ExitedWithCode(1), named);
    }
    for (const char *name : {"iters", "batch", "gpus", "warmup"})
        EXPECT_EXIT(harnessConfig(name, "4294967296"),
                    ::testing::ExitedWithCode(1),
                    std::string("--") + name);
    EXPECT_EXIT(harnessConfig("warmup", "-1"),
                ::testing::ExitedWithCode(1), "--warmup");

    // Values at the bounds of each range are accepted.
    EXPECT_EQ(harnessConfig("warmup", "0").warmup, 0u);
    EXPECT_EQ(harnessConfig("iters", "4294967295").iters, 4294967295u);
    EXPECT_EQ(harnessConfig("profile-samples", "1").profileSamples, 1u);
}

TEST(Reshard, DriftMakesReshardingProfitable)
{
    // Build a plan at month 0, then profile month 18 data with
    // swapped feature statistics pressure; a fresh plan should win.
    ModelSpec model = makeTinyModel(8, 3000, 13);
    SyntheticDataset data(model, 21);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    const PipelineResult month0 =
        RecShardPipeline(data, sys, opts).run();

    // Exaggerated drift so the effect is deterministic.
    DriftModel drift;
    drift.userSlopePerMonth = 0.05;
    drift.contentSlopePerMonth = 0.01;
    data.setDrift(drift);
    data.setMonth(18);
    const auto fresh_profiles = profileDataset(data, 20000, 4096);

    const ReshardAssessment assess = assessReshard(
        model, fresh_profiles, sys, month0.plan, month0.resolvers);
    EXPECT_GE(assess.speedup, 1.0);
    assess.freshPlan.validate(model, sys);
    EXPECT_LE(assess.freshCost, assess.incumbentCost + 1e-12);
}

TEST(Reshard, NoDriftMeansLittleBenefit)
{
    ModelSpec model = makeTinyModel(8, 3000, 17);
    SyntheticDataset data(model, 23);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 20000;
    const PipelineResult result =
        RecShardPipeline(data, sys, opts).run();

    // Re-profile the *same* distribution.
    const auto fresh = profileDataset(data, 20000, 4096);
    const ReshardAssessment assess = assessReshard(
        model, fresh, sys, result.plan, result.resolvers);
    // Statistically identical data: re-sharding buys very little.
    EXPECT_LT(assess.speedup, 1.15);
}

TEST(Reshard, ThreeTierSelfAssessmentIsNeutral)
{
    // A plan assessed against itself under its own profiles must
    // price the same both ways on an HBM/DRAM/SSD node: the
    // incumbent (through its resolvers) and the fresh plan share
    // one N-tier estimator.
    const ModelSpec model = makeRm1(2e-4);
    SyntheticDataset data(model, 42);
    const auto profiles = profileDataset(data, 6000, 2048);
    const std::uint32_t gpus = 2;
    const std::uint64_t total = model.totalBytes();
    const SystemSpec node =
        threeTierNode(gpus, total / (16 * gpus), total / (8 * gpus),
                      total / gpus + (1ULL << 20));

    const RecShardOptions opts;
    PlanRequest req =
        PlanRequest::make(model, profiles, node, opts.batchSize);
    req.solver = opts;
    const PlanResult solved =
        PlannerRegistry::create("recshard")->plan(req);
    ASSERT_TRUE(solved.diag.feasible);
    const auto resolvers =
        ExecutionEngine::buildResolvers(model, solved.plan, profiles);

    const ReshardAssessment assess = assessReshard(
        model, profiles, node, solved.plan, resolvers, opts);
    EXPECT_GT(assess.freshCost, 0.0);
    EXPECT_NEAR(assess.speedup, 1.0, 1e-9);
}

} // namespace
