/**
 * @file
 * Tests for the unified planner API: registry lookup and errors,
 * the six built-in strategies honoring the Planner contract on a
 * shared fixture, seed-determinism of the stochastic strategy,
 * the milp adapter's no-incumbent reporting, lp-rounding's
 * MILP-size boundary, external self-registration, planner
 * selection by name in the pipeline, and heterogeneous per-node
 * cluster planning (a larger-HBM node must pin more hot rows),
 * and a golden of the three-tier cluster plan set, which node
 * solves on any number of workers must reproduce bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "recshard/core/pipeline.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/sharding/cluster_plan.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

const char *const kBuiltins[] = {
    "greedy-size", "greedy-lookup", "greedy-size-lookup",
    "recshard", "milp", "lp-rounding",
};

/** Shared fixture: a capacity-pressured 2-GPU instance small
 *  enough for the exact MILP. */
struct PlannerFixture
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;

    PlannerFixture()
        : model(makeTinyModel(5, 1500, 71)), data(model, 72),
          system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = model.totalBytes() / 5;
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 20000, 4096);
    }

    PlanRequest request() const
    {
        PlanRequest req =
            PlanRequest::make(model, profiles, system, 4096);
        req.milp.icdfSteps = 4;
        return req;
    }
};

// -------------------------------------------------------- registry

TEST(PlannerRegistry, KnowsAllBuiltinStrategies)
{
    const std::vector<std::string> names = PlannerRegistry::names();
    for (const char *name : kBuiltins) {
        EXPECT_TRUE(PlannerRegistry::contains(name))
            << "missing builtin '" << name << "'";
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end());
        const auto planner = PlannerRegistry::create(name);
        ASSERT_NE(planner, nullptr);
        EXPECT_STREQ(planner->name(), name);
    }
    // Only the exact MILP and its LP relaxation refuse
    // production-scale instances.
    for (const char *name : kBuiltins) {
        const std::string n = name;
        EXPECT_EQ(PlannerRegistry::create(name)->scalable(),
                  n != "milp" && n != "lp-rounding")
            << name;
    }
}

TEST(PlannerRegistry, UnknownNameIsFatal)
{
    EXPECT_EXIT(PlannerRegistry::create("no-such-planner"),
                ::testing::ExitedWithCode(1), "unknown planner");
}

TEST(PlannerRegistry, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(PlannerRegistry::add(
                    "recshard",
                    [] { return PlannerRegistry::create("milp"); }),
                ::testing::ExitedWithCode(1), "already registered");
}

/** A registrable toy strategy: delegates to greedy-size. */
class PinNothingPlanner : public Planner
{
  public:
    const char *name() const override { return "test-delegate"; }

  protected:
    ShardingPlan solve(const PlanRequest &req,
                       PlanDiagnostics &diag) const override
    {
        diag.notes = "delegating test planner";
        return PlannerRegistry::create("greedy-size")
            ->plan(req)
            .plan;
    }
};

TEST(PlannerRegistry, SelfRegistrationExtendsEverySurface)
{
    PlannerRegistrar registrar{"test-delegate", [] {
        return std::make_unique<PinNothingPlanner>();
    }};
    ASSERT_TRUE(PlannerRegistry::contains("test-delegate"));

    const PlannerFixture fx;
    const PlanResult r =
        PlannerRegistry::create("test-delegate")->plan(fx.request());
    EXPECT_TRUE(r.diag.feasible);
    EXPECT_EQ(r.diag.planner, "test-delegate");
    r.plan.validate(fx.model, fx.system);
}

// ------------------------------------------- the planner contract

TEST(Planner, EveryBuiltinReturnsAFeasibleValidatedPlan)
{
    const PlannerFixture fx;
    for (const char *name : kBuiltins) {
        const auto planner = PlannerRegistry::create(name);
        const PlanResult r = planner->plan(fx.request());
        ASSERT_TRUE(r.diag.feasible) << name;
        EXPECT_EQ(r.diag.planner, name);
        r.plan.validate(fx.model, fx.system);
        EXPECT_EQ(r.plan.tables.size(), fx.model.features.size())
            << name;
        EXPECT_GT(r.diag.bottleneckCost, 0.0) << name;
        EXPECT_GE(r.diag.solveSeconds, 0.0) << name;
        EXPECT_FALSE(r.diag.notes.empty()) << name;
    }
}

TEST(Planner, UniformDiagnosticsAreComparableAcrossStrategies)
{
    // Same fixture, same batch, same estimator: under capacity
    // pressure the splitting strategies must beat every whole-table
    // greedy baseline on the *uniform* bottleneck estimate.
    const PlannerFixture fx;
    const PlanRequest req = fx.request();
    const double recshard =
        PlannerRegistry::create("recshard")->plan(req)
            .diag.bottleneckCost;
    for (const char *greedy :
         {"greedy-size", "greedy-lookup", "greedy-size-lookup"}) {
        const double base =
            PlannerRegistry::create(greedy)->plan(req)
                .diag.bottleneckCost;
        EXPECT_LT(recshard, base * 1.0001)
            << "recshard lost to " << greedy;
    }
}

TEST(Planner, StochasticStrategiesAreSeedDeterministic)
{
    // Same request + same seed → byte-identical placements and the
    // same uniform cost; a different seed is allowed to differ (and
    // rounding trials genuinely sample), but must stay feasible.
    const PlannerFixture fx;
    const auto planner = PlannerRegistry::create("lp-rounding");
    PlanRequest req = fx.request();
    req.seed = 1234567;
    const PlanResult a = planner->plan(req);
    const PlanResult b = planner->plan(req);
    ASSERT_TRUE(a.diag.feasible);
    ASSERT_TRUE(b.diag.feasible);
    ASSERT_EQ(a.plan.tables.size(), b.plan.tables.size());
    for (std::size_t j = 0; j < a.plan.tables.size(); ++j) {
        EXPECT_EQ(a.plan.tables[j].gpu, b.plan.tables[j].gpu)
            << "table " << j;
        EXPECT_EQ(a.plan.tables[j].hbmRows, b.plan.tables[j].hbmRows)
            << "table " << j;
    }
    EXPECT_EQ(a.diag.bottleneckCost, b.diag.bottleneckCost);
    EXPECT_EQ(a.diag.notes, b.diag.notes);

    req.seed = 7654321;
    const PlanResult c = planner->plan(req);
    EXPECT_TRUE(c.diag.feasible);
    c.plan.validate(fx.model, fx.system);
}

TEST(Planner, LpRoundingPastMilpSizeLimitIsFatal)
{
    // lp-rounding relaxes the MILP's own formulation, so an
    // instance past milp.maxBinaries fails at the boundary, naming
    // the limit, exactly as "milp" does.
    const PlannerFixture fx;
    PlanRequest req = fx.request();
    req.milp.maxBinaries = 10;
    EXPECT_EXIT(PlannerRegistry::create("lp-rounding")->plan(req),
                ::testing::ExitedWithCode(1), "limit 10");
}

TEST(Planner, MilpAdapterReportsStatusNotObjectiveWithoutIncumbent)
{
    // With the node budget zeroed and the rounding heuristic off,
    // branch-and-bound can't produce an incumbent: the adapter must
    // mark the result infeasible and report only the root status —
    // never the sentinel objective as if it were a real cost.
    const PlannerFixture fx;
    PlanRequest req = fx.request();
    req.milp.milp.nodeLimit = 0;
    req.milp.milp.roundingHeuristic = false;
    const PlanResult r = PlannerRegistry::create("milp")->plan(req);
    EXPECT_FALSE(r.diag.feasible);
    EXPECT_NE(r.diag.notes.find("no incumbent"), std::string::npos)
        << r.diag.notes;
    EXPECT_EQ(r.diag.notes.find("objective"), std::string::npos)
        << r.diag.notes;
}

TEST(Planner, RejectsMalformedRequests)
{
    const PlannerFixture fx;
    PlanRequest req = fx.request();
    req.model = nullptr;
    EXPECT_EXIT(PlannerRegistry::create("recshard")->plan(req),
                ::testing::ExitedWithCode(1), "no model");

    PlanRequest mismatched = fx.request();
    const std::vector<EmbProfile> too_few(fx.profiles.begin(),
                                          fx.profiles.end() - 1);
    mismatched.profiles = &too_few;
    EXPECT_EXIT(PlannerRegistry::create("recshard")->plan(mismatched),
                ::testing::ExitedWithCode(1), "profiles");
}

// ------------------------------------- pipeline planner selection

TEST(PipelineShim, PipelineRunsAnyPlannerByName)
{
    const ModelSpec model = makeTinyModel(6, 1200, 77);
    SyntheticDataset data(model, 78);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 4;
    sys.uvm.capacityBytes = model.totalBytes();

    PipelineOptions opts;
    opts.profileSamples = 10000;
    opts.plannerName = "greedy-lookup";
    const PipelineResult result =
        RecShardPipeline(data, sys, opts).run();
    result.plan.validate(model, sys);
    EXPECT_EQ(result.plan.strategy, "Lookup-Based");
    EXPECT_EQ(result.planDiag.planner, "greedy-lookup");
    EXPECT_GT(result.planDiag.bottleneckCost, 0.0);
}

// ------------------------------------- heterogeneous cluster plans

TEST(HeterogeneousCluster, BiggerHbmNodePinsMoreHotRows)
{
    const ModelSpec model = makeTinyModel(10, 8000, 81);
    SyntheticDataset data(model, 82);
    const auto profiles = profileDataset(data, 30000, 4096);

    // Node 0: 4 GPUs with a generous HBM budget. Node 1: 2 GPUs
    // able to pin only a sliver of the model.
    SystemSpec big = SystemSpec::paper(4, 1.0);
    big.hbm.capacityBytes = static_cast<std::uint64_t>(
        0.40 * static_cast<double>(model.totalBytes()) / big.numGpus);
    big.uvm.capacityBytes = model.totalBytes();
    SystemSpec small = SystemSpec::paper(2, 1.0);
    small.hbm.capacityBytes = static_cast<std::uint64_t>(
        0.05 * static_cast<double>(model.totalBytes()) /
        small.numGpus);
    small.uvm.capacityBytes = model.totalBytes();

    ClusterPlanOptions cp;
    cp.nodeSpecs = {big, small};
    const ClusterPlanSet set =
        solveNodePlans(model, profiles, SystemSpec::paper(2, 1.0),
                       cp);

    ASSERT_EQ(set.plans.size(), 2u);
    ASSERT_EQ(set.nodeSpecs.size(), 2u);
    ASSERT_EQ(set.diags.size(), 2u);
    // Each node's plan is valid against *its own* spec.
    set.plans[0].validate(model, big);
    set.plans[1].validate(model, small);
    // The asymmetry the heterogeneity exists for: the big node
    // pins far more hot rows than the small one.
    EXPECT_GT(set.plans[0].totalHbmRows(),
              2 * set.plans[1].totalHbmRows());
    // Traffic-weighted slicing feeds the big node more tables.
    EXPECT_GT(set.slices[0].size(), set.slices[1].size());
    for (const PlanDiagnostics &d : set.diags)
        EXPECT_EQ(d.planner, "recshard");
}

TEST(HeterogeneousCluster, ExtremeHbmRatioStillFillsEverySlice)
{
    // A 20x HBM imbalance must not starve the small node of tables:
    // an empty slice would silently disable locality routing and
    // hedging for that node.
    const ModelSpec model = makeTinyModel(10, 3000, 87);
    SyntheticDataset data(model, 88);
    const auto profiles = profileDataset(data, 20000, 4096);

    SystemSpec big = SystemSpec::paper(2, 1.0);
    big.hbm.capacityBytes = model.totalBytes();
    big.uvm.capacityBytes = model.totalBytes();
    SystemSpec small = big;
    small.hbm.capacityBytes = model.totalBytes() / 20;

    ClusterPlanOptions cp;
    cp.nodeSpecs = {big, small};
    const ClusterPlanSet set = solveNodePlans(
        model, profiles, SystemSpec::paper(2, 1.0), cp);
    for (const auto &slice : set.slices)
        EXPECT_FALSE(slice.empty());
    EXPECT_GT(set.slices[0].size(), set.slices[1].size());
}

TEST(HeterogeneousCluster, AnyRegisteredPlannerSolvesNodeSlices)
{
    const ModelSpec model = makeTinyModel(8, 3000, 91);
    SyntheticDataset data(model, 92);
    const auto profiles = profileDataset(data, 20000, 4096);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 6;
    sys.uvm.capacityBytes = model.totalBytes();

    ClusterPlanOptions cp;
    cp.numNodes = 2;
    cp.plannerName = "greedy-size";
    const ClusterPlanSet set =
        solveNodePlans(model, profiles, sys, cp);
    ASSERT_EQ(set.plans.size(), 2u);
    for (std::uint32_t n = 0; n < 2; ++n) {
        set.plans[n].validate(model, sys);
        EXPECT_EQ(set.diags[n].planner, "greedy-size");
        // Baselines never split: every placement is all-or-nothing.
        for (std::size_t j = 0; j < set.plans[n].tables.size(); ++j) {
            const auto rows = set.plans[n].tables[j].hbmRows;
            EXPECT_TRUE(rows == 0 ||
                        rows == model.features[j].hashSize);
        }
    }
}

/** Node plan as "gpu:hbmRows:tier0/tier1/... " per table. */
std::string
renderNodePlan(const ShardingPlan &plan)
{
    std::ostringstream out;
    for (const EmbPlacement &t : plan.tables) {
        out << t.gpu << ':' << t.hbmRows << ':';
        for (std::size_t k = 0; k < t.tierRows.size(); ++k)
            out << (k ? "/" : "") << t.tierRows[k];
        out << ' ';
    }
    return out.str();
}

/** A double's exact bits as a C++ hexfloat literal. */
std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

TEST(ClusterPlanGolden, ThreeTierNodePlansArePinned)
{
    // The perfbench serve-3tier cluster: 16 tables of 20000 rows at
    // dim 128, 3 nodes of 2 GPUs with HBM 10% / DRAM 25% / SSD 100%
    // of the model per node, profiled from seed 106.
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
    const ClusterPlanSet set = solveNodePlans(model, profiles, node, cp);

    // Captured from the serial node loop: tables in model order.
    const char *const kPlans[] = {
        "0:0:0/30/64 0:0:0/15/1 0:0:0/14/2 0:0:0/319/33 0:7456:7456/0/0 "
        "0:0:0/14/2 0:0:0/2684/321 0:0:0/25122/97465 0:0:0/1484/2277 "
        "0:1266:1266/0/0 0:0:0/15/1 1:15173:15173/1885/59486 0:0:0/12/4 "
        "0:1227:1227/0/0 0:0:0/10291/282 1:0:0/38115/54940 ",
        "1:94:94/0/0 0:0:0/15/1 1:16:16/0/0 0:0:0/319/33 0:0:0/1189/6267 "
        "1:16:16/0/0 0:3005:3005/0/0 0:0:0/26730/95857 1:3761:3761/0/0 "
        "0:0:0/496/770 1:16:16/0/0 1:0:0/11661/64883 0:0:0/12/4 "
        "0:0:0/948/279 0:0:0/10291/282 1:0:0/28339/64716 ",
        "1:0:0/36/58 1:16:16/0/0 1:0:0/16/0 1:352:352/0/0 1:0:0/2291/5165 "
        "1:0:0/14/2 1:0:0/3003/2 1:5509:5509/31222/85856 1:0:0/1484/2277 "
        "1:0:0/496/770 1:0:0/15/1 0:0:0/17494/59050 1:16:16/0/0 "
        "1:0:0/948/279 1:10098:10098/475/0 0:15679:15679/22506/54870 ",
    };
    const double kBottleneck[] = {0x1.31c77df730a21p-10,
                                  0x1.bb2d8aea5bea7p-12,
                                  0x1.7358d8f653d41p-8};
    ASSERT_EQ(set.plans.size(), 3u);
    ASSERT_EQ(set.diags.size(), 3u);
    for (std::size_t n = 0; n < 3; ++n) {
        SCOPED_TRACE("node " + std::to_string(n));
        EXPECT_EQ(renderNodePlan(set.plans[n]), kPlans[n]);
        EXPECT_EQ(hexfloat(set.diags[n].bottleneckCost),
                  hexfloat(kBottleneck[n]));
    }
}

} // namespace
