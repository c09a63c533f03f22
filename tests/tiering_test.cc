/**
 * @file
 * Tests for the N-tier placement subsystem (tiering/): topology
 * presets, the two-tier projection that lets every registry solver
 * plan an N-tier node, the exchange-argument extension that splits
 * cold remainders across the real tiers, resolver/plan agreement,
 * tier-priced serving, mixed-topology clusters, and the migration
 * path's per-tier bookkeeping.
 *
 * The acceptance gate lives here: every registry planner must
 * produce a feasible, validated N-tier plan on the rm1 zoo (the
 * exact MILP and lp-rounding, which refuse production-scale
 * instances by contract, prove the same on a tiny instance).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/replan/migration.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/cluster_plan.hh"
#include "recshard/tiering/tier_plan.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

/** A 3-tier node sized so HBM holds 1/hbm_div of the model, DRAM
 *  1/dram_div, and the SSD absorbs the rest with slack. */
SystemSpec
pressuredThreeTier(const ModelSpec &model, std::uint32_t gpus,
                   std::uint64_t hbm_div, std::uint64_t dram_div,
                   bool near_data = false)
{
    const std::uint64_t total = model.totalBytes();
    return threeTierNode(gpus, total / (hbm_div * gpus),
                         total / (dram_div * gpus),
                         total / gpus + (1ULL << 20), near_data);
}

// ------------------------------------------------- topology presets

TEST(TieringTopology, PresetsMatchReportedHardware)
{
    const MemoryTierSpec hbm = hbmTier(24 * GB);
    EXPECT_EQ(hbm.name, "HBM");
    EXPECT_DOUBLE_EQ(hbm.bandwidth, 1555.0 * GBps);
    EXPECT_DOUBLE_EQ(hbm.accessLatency, 0.0);
    EXPECT_FALSE(hbm.nearData);

    const MemoryTierSpec dram = dramTier(128 * GB);
    EXPECT_DOUBLE_EQ(dram.bandwidth, 12.8 * GBps);
    EXPECT_FALSE(dram.nearData);

    const MemoryTierSpec ssd = ssdTier(2048ULL * GB);
    EXPECT_DOUBLE_EQ(ssd.bandwidth, 2.0 * GBps);
    EXPECT_DOUBLE_EQ(ssd.accessLatency, 100e-6);
    EXPECT_FALSE(ssd.nearData);
    const MemoryTierSpec nd = ssdTier(2048ULL * GB, true);
    EXPECT_TRUE(nd.nearData);
    EXPECT_NE(nd.name, ssd.name); // distinguishable in reports

    const SystemSpec node =
        threeTierNode(2, 24 * GB, 128 * GB, 2048ULL * GB);
    node.validate();
    EXPECT_EQ(node.numTiers(), 3u);
    EXPECT_EQ(node.numGpus, 2u);
    EXPECT_EQ(node.tier(0).name, "HBM");
    EXPECT_EQ(node.tier(1).name, "DRAM");
    EXPECT_EQ(node.tier(2).name, "SSD");
    EXPECT_EQ(node.coldCapacityBytes(),
              (128ULL + 2048ULL) * GB);
}

TEST(TieringTopology, MixedClusterOrdersHotThenCold)
{
    const SystemSpec hot = SystemSpec::paper(4, 1.0);
    const SystemSpec cold =
        threeTierNode(2, 4 * GB, 32 * GB, 512 * GB);
    const std::vector<SystemSpec> cluster =
        mixedTierCluster(2, hot, 3, cold);
    ASSERT_EQ(cluster.size(), 5u);
    for (std::size_t n = 0; n < 2; ++n)
        EXPECT_EQ(cluster[n].numTiers(), 2u);
    for (std::size_t n = 2; n < 5; ++n)
        EXPECT_EQ(cluster[n].numTiers(), 3u);
}

// ---------------------------------------------- two-tier projection

TEST(TieringProjection, TwoTierSystemIsIdentity)
{
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    const SystemSpec proj = twoTierProjection(sys);
    EXPECT_EQ(proj.numTiers(), 2u);
    EXPECT_EQ(proj.hbm.capacityBytes, sys.hbm.capacityBytes);
    EXPECT_EQ(proj.uvm.capacityBytes, sys.uvm.capacityBytes);
    EXPECT_DOUBLE_EQ(proj.uvm.bandwidth, sys.uvm.bandwidth);
}

TEST(TieringProjection, ColdTiersCollapseToHarmonicMeanAggregate)
{
    const SystemSpec node =
        threeTierNode(2, 16 * GB, 100 * GB, 300 * GB);
    const SystemSpec proj = twoTierProjection(node);
    proj.validate();
    EXPECT_EQ(proj.numTiers(), 2u);
    // HBM untouched; cold capacity is the cold sum.
    EXPECT_EQ(proj.hbm.capacityBytes, node.hbm.capacityBytes);
    EXPECT_EQ(proj.uvm.capacityBytes, 400ULL * GB);
    // Capacity-weighted harmonic mean: the bandwidth a byte spread
    // uniformly across DRAM and SSD would see.
    const double expect = 400.0 * GB /
        (100.0 * GB / (12.8 * GBps) + 300.0 * GB / (2.0 * GBps));
    EXPECT_NEAR(proj.uvm.bandwidth, expect, 1e-3);
    // Strictly between the slowest and fastest cold tier.
    EXPECT_GT(proj.uvm.bandwidth, 2.0 * GBps);
    EXPECT_LT(proj.uvm.bandwidth, 12.8 * GBps);
    // The aggregate is a pure bandwidth abstraction.
    EXPECT_DOUBLE_EQ(proj.uvm.accessLatency, 0.0);
    EXPECT_FALSE(proj.uvm.nearData);
}

// -------------------------------- the N-tier acceptance criterion

/** Structural contract of a tiered placement. */
void
expectTieredStructure(const ModelSpec &model,
                      const ShardingPlan &plan,
                      const SystemSpec &system)
{
    plan.validate(model, system);
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const EmbPlacement &t = plan.tables[j];
        ASSERT_TRUE(t.tiered()) << "table " << j;
        ASSERT_EQ(t.tierRows.size(), system.numTiers());
        ASSERT_EQ(t.tierAccessFraction.size(), system.numTiers());
        EXPECT_EQ(t.tierRows[0], t.hbmRows) << "table " << j;
        std::uint64_t rows = 0;
        double share = 0.0;
        for (std::size_t i = 0; i < t.tierRows.size(); ++i) {
            rows += t.tierRows[i];
            share += t.tierAccessFraction[i];
        }
        EXPECT_EQ(rows, model.features[j].hashSize)
            << "table " << j;
        // A table the profile never touched carries no access
        // share at all; every other table's shares telescope to 1.
        EXPECT_TRUE(std::abs(share - 1.0) < 1e-9 || share == 0.0)
            << "table " << j << " shares sum to " << share;
    }
}

TEST(TieringPlan, EveryScalablePlannerSolvesRm1ThreeTier)
{
    // The acceptance gate: the rm1 zoo (down-scaled; same 397
    // production feature statistics) on a capacity-pressured 3-tier
    // node, swept across every registered scalable strategy.
    const ModelSpec model = makeRm1(2e-4);
    SyntheticDataset data(model, 42);
    const auto profiles = profileDataset(data, 6000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 16, 8);

    for (const std::string &name : PlannerRegistry::names()) {
        const auto planner = PlannerRegistry::create(name);
        if (!planner->scalable())
            continue; // milp and lp-rounding: tiny instance below
        const PlanRequest req =
            PlanRequest::make(model, profiles, node, 4096);
        const PlanResult r = planner->plan(req);
        ASSERT_TRUE(r.diag.feasible) << name;
        expectTieredStructure(model, r.plan, node);
        // Satellite wiring: the Combine::Max diagnostic rides on
        // every feasible plan's notes.
        EXPECT_NE(r.diag.notes.find("max-combine"),
                  std::string::npos)
            << name;
        // DRAM cannot hold the cold remainder, so the SSD tier
        // must actually be used.
        std::uint64_t ssd_rows = 0;
        for (const EmbPlacement &t : r.plan.tables)
            ssd_rows += t.tierRows[2];
        EXPECT_GT(ssd_rows, 0u) << name;
    }
}

TEST(TieringPlan, LpRoundingIsSeedDeterministicOnTinyThreeTierInstance)
{
    // The stochastic planner's whole pipeline — LP relaxation,
    // seeded rounding trials, repair, N-tier extension — must
    // reproduce bit for bit from PlanRequest::seed on a 3-tier node
    // small enough for the relaxation.
    const ModelSpec model = makeTinyModel(4, 800, 71);
    SyntheticDataset data(model, 72);
    const auto profiles = profileDataset(data, 10000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 8, 6);

    PlanRequest req = PlanRequest::make(model, profiles, node, 4096);
    req.milp.icdfSteps = 4;
    const auto planner = PlannerRegistry::create("lp-rounding");
    const PlanResult a = planner->plan(req);
    const PlanResult b = planner->plan(req);
    ASSERT_TRUE(a.diag.feasible);
    ASSERT_TRUE(b.diag.feasible);
    expectTieredStructure(model, a.plan, node);
    ASSERT_EQ(a.plan.tables.size(), b.plan.tables.size());
    for (std::size_t j = 0; j < a.plan.tables.size(); ++j) {
        EXPECT_EQ(a.plan.tables[j].gpu, b.plan.tables[j].gpu);
        EXPECT_EQ(a.plan.tables[j].hbmRows,
                  b.plan.tables[j].hbmRows);
        EXPECT_EQ(a.plan.tables[j].tierRows,
                  b.plan.tables[j].tierRows);
    }
    EXPECT_EQ(a.diag.bottleneckCost, b.diag.bottleneckCost);
}

TEST(TieringPlan, ExactMilpSolvesTinyThreeTierInstance)
{
    const ModelSpec model = makeTinyModel(4, 800, 71);
    SyntheticDataset data(model, 72);
    const auto profiles = profileDataset(data, 10000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 8, 6);

    PlanRequest req = PlanRequest::make(model, profiles, node, 4096);
    req.milp.icdfSteps = 4;
    const PlanResult r = PlannerRegistry::create("milp")->plan(req);
    ASSERT_TRUE(r.diag.feasible);
    expectTieredStructure(model, r.plan, node);
}

TEST(TieringPlan, HotterChunksNeverLandOnSlowerTiers)
{
    // Per-table monotonicity of the exchange-argument extension:
    // within one table, every row in tier i is at least as hot
    // (rank-wise) as every row in tier i+1 — the split is a
    // contiguous rank partition.
    const ModelSpec model = makeTinyModel(6, 3000, 91);
    SyntheticDataset data(model, 92);
    const auto profiles = profileDataset(data, 20000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 12, 6);

    const PlanResult r = PlannerRegistry::create("recshard")->plan(
        PlanRequest::make(model, profiles, node, 4096));
    ASSERT_TRUE(r.diag.feasible);
    const auto resolvers =
        ExecutionEngine::buildResolvers(model, r.plan, profiles);
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const auto &ranked = profiles[j].cdf.rankedRows();
        std::uint8_t floor_tier = 0;
        for (const std::uint64_t row : ranked) {
            const std::uint8_t tier = resolvers[j].tierOf(row);
            EXPECT_GE(tier, floor_tier)
                << "table " << j << " row " << row;
            floor_tier = std::max(floor_tier, tier);
        }
    }
}

// ------------------------------------------- resolver/plan agreement

TEST(TieringResolver, ResolverTierCountsMatchThePlan)
{
    const ModelSpec model = makeTinyModel(5, 2000, 31);
    SyntheticDataset data(model, 32);
    const auto profiles = profileDataset(data, 15000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 10, 5);

    const PlanResult r = PlannerRegistry::create("recshard")->plan(
        PlanRequest::make(model, profiles, node, 4096));
    ASSERT_TRUE(r.diag.feasible);
    const auto resolvers =
        ExecutionEngine::buildResolvers(model, r.plan, profiles);
    ASSERT_EQ(resolvers.size(), model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const std::uint64_t rows = model.features[j].hashSize;
        ASSERT_EQ(resolvers[j].numTiers(), 3u) << "table " << j;
        for (std::uint8_t tier = 0; tier < 3; ++tier) {
            EXPECT_EQ(resolvers[j].tierRows(rows, tier),
                      r.plan.tables[j].tierRows[tier])
                << "table " << j << " tier " << int(tier);
        }
        EXPECT_EQ(resolvers[j].pinnedRows(rows),
                  r.plan.tables[j].hbmRows);
    }
}

TEST(TieringShares, SharesSumToOneAndLegacyFallsBack)
{
    const FrequencyCdf cdf(100, {{0, 50}, {1, 30}, {2, 20}});
    EmbPlacement tiered;
    tiered.hbmRows = 1;
    tiered.tierRows = {1, 2, 97};
    const std::vector<double> s = tierAccessShares(tiered, cdf, 3);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_NEAR(s[0] + s[1] + s[2], 1.0, 1e-12);
    EXPECT_NEAR(s[0], 0.5, 1e-12);
    EXPECT_NEAR(s[1], 0.5, 1e-12); // ranks 1-2 carry the rest

    // A legacy two-tier placement recomputes the hot share from
    // the CDF at its pin budget; cold tiers beyond UVM see nothing.
    EmbPlacement legacy;
    legacy.hbmRows = 1;
    const std::vector<double> l = tierAccessShares(legacy, cdf, 3);
    ASSERT_EQ(l.size(), 3u);
    EXPECT_NEAR(l[0], 0.5, 1e-12);
    EXPECT_NEAR(l[1], 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(l[2], 0.0);
}

// ------------------------------------------------ tier-priced serving

struct ServedThreeTier
{
    ModelSpec model;
    SyntheticDataset data;
    std::vector<EmbProfile> profiles;
    SystemSpec node;
    ShardingPlan plan;
    std::vector<TierResolver> resolvers;
    ServingConfig cfg;

    explicit ServedThreeTier(bool near_data = false)
        : model(makeTinyModel(6, 2500, 51)), data(model, 52)
    {
        profiles = profileDataset(data, 15000, 2048);
        node = pressuredThreeTier(model, 2, 12, 6, near_data);
        const PlanResult r =
            PlannerRegistry::create("recshard")->plan(
                PlanRequest::make(model, profiles, node, 4096));
        EXPECT_TRUE(r.diag.feasible);
        plan = r.plan;
        resolvers =
            ExecutionEngine::buildResolvers(model, plan, profiles);
        cfg.load.qps = 2000.0;
        cfg.load.meanQuerySamples = 4.0;
        cfg.load.seed = 53;
        cfg.numQueries = 4000;
    }
};

TEST(TieringServing, SsdLatencyAndBandwidthShowUpInServedTimes)
{
    const ServedThreeTier fx;
    const ServingReport ssd = serveTraffic(
        fx.data, fx.plan, fx.resolvers, fx.node, fx.cfg);

    // Same plan, same trace, but the SSD tier upgraded to DRAM
    // speed with no access setup: every served latency can only
    // drop, and with real SSD traffic in the plan the p99 must.
    SystemSpec fast = fx.node;
    fast.coldTiers[0].bandwidth = fast.uvm.bandwidth;
    fast.coldTiers[0].accessLatency = 0.0;
    const ServingReport quick = serveTraffic(
        fx.data, fx.plan, fx.resolvers, fast, fx.cfg);

    EXPECT_GT(ssd.p99Latency, quick.p99Latency);
    EXPECT_GE(ssd.p50Latency, quick.p50Latency);
    // Cold tiers really served traffic in both runs.
    EXPECT_GT(ssd.uvmAccessFraction, 0.0);
}

TEST(TieringServing, NearDataPoolingNeverServesSlower)
{
    const ServedThreeTier fx;
    const ServedThreeTier nd(true);
    // Identical model/plan/trace; only the SSD's in-situ pooling
    // flag differs, so reduced vectors replace raw rows on the
    // link and tail latency cannot regress.
    const ServingReport plain = serveTraffic(
        fx.data, fx.plan, fx.resolvers, fx.node, fx.cfg);
    const ServingReport pooled = serveTraffic(
        fx.data, fx.plan, fx.resolvers, nd.node, fx.cfg);
    EXPECT_LE(pooled.p99Latency, plain.p99Latency);
    EXPECT_LT(pooled.meanLatency, plain.meanLatency);
}

// ------------------------------------------- mixed-topology clusters

TEST(TieringCluster, MixedTopologyNodesEachValidate)
{
    const ModelSpec model = makeTinyModel(10, 3000, 61);
    SyntheticDataset data(model, 62);
    const auto profiles = profileDataset(data, 20000, 2048);

    SystemSpec hot = SystemSpec::paper(2, 1.0);
    hot.hbm.capacityBytes = model.totalBytes() / 4;
    hot.uvm.capacityBytes = model.totalBytes();
    const SystemSpec cold = pressuredThreeTier(model, 2, 16, 8);

    ClusterPlanOptions cp;
    cp.nodeSpecs = mixedTierCluster(1, hot, 1, cold);
    const ClusterPlanSet set = solveNodePlans(
        model, profiles, SystemSpec::paper(2, 1.0), cp);
    ASSERT_EQ(set.plans.size(), 2u);
    set.plans[0].validate(model, hot);
    set.plans[1].validate(model, cold);

    // The 2-tier node keeps legacy placements; the 3-tier node
    // tiers every table — including the non-slice tables it only
    // received at lift time.
    for (const EmbPlacement &t : set.plans[0].tables)
        EXPECT_FALSE(t.tiered());
    for (const EmbPlacement &t : set.plans[1].tables)
        EXPECT_TRUE(t.tiered());
}

// ------------------------------------- migration on a tiered node

TEST(TieringMigration, PerTierDiffKeepsColdMapAndReachesTarget)
{
    const ModelSpec model = makeTinyModel(4, 1500, 81);
    SyntheticDataset data(model, 82);
    const auto profiles = profileDataset(data, 10000, 2048);
    const SystemSpec node = pressuredThreeTier(model, 2, 10, 5);

    // Incumbent: a planned 3-tier membership.
    const PlanResult incumbent =
        PlannerRegistry::create("recshard")->plan(
            PlanRequest::make(model, profiles, node, 4096));
    ASSERT_TRUE(incumbent.diag.feasible);
    std::vector<TierResolver> live =
        ExecutionEngine::buildResolvers(model, incumbent.plan,
                                        profiles);
    std::vector<std::uint64_t> old_pins;
    std::vector<std::vector<std::uint8_t>> old_tier_of(
        model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        old_pins.push_back(incumbent.plan.tables[j].hbmRows);
        for (std::uint64_t r = 0; r < model.features[j].hashSize;
             ++r)
            old_tier_of[j].push_back(live[j].tierOf(r));
    }

    // Target: shifted pin budgets on the same ranking.
    ShardingPlan target;
    target.tables.resize(model.numFeatures());
    std::vector<FrequencyCdf> target_cdfs(model.numFeatures());
    std::vector<std::uint32_t> tables;
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        target.tables[j].hbmRows = j % 2 == 0
            ? old_pins[j] + old_pins[j] / 2 + 8
            : old_pins[j] / 2;
        target_cdfs[j] = profiles[j].cdf;
        tables.push_back(j);
    }

    MigrationConfig mc;
    mc.rowsPerStep = 32;
    PlanMigration mig(model, target, target_cdfs, tables, live, mc);
    ASSERT_GT(mig.totalSteps(), 0u);

    while (!mig.done()) {
        const MigrationStep &step = mig.front();
        const std::uint32_t j = step.table;
        const std::uint64_t rows = model.features[j].hashSize;
        // The materialized resolver keeps the full tier map.
        ASSERT_EQ(live[j].numTiers(), 3u);
        // Unpins release pinned rows, pins promote cold rows —
        // per tier: a pinned row leaves tier 0, never a cold tier.
        for (const std::uint64_t r : step.unpins)
            ASSERT_EQ(live[j].tierOf(r), 0u);
        for (const std::uint64_t r : step.pins)
            ASSERT_GT(live[j].tierOf(r), 0u);
        mig.commitFront();
        // Committed unpins land in the first cold tier (DRAM) —
        // demotion never teleports a row to the SSD.
        for (const std::uint64_t r : step.unpins)
            ASSERT_EQ(live[j].tierOf(r), 1u);
        for (const std::uint64_t r : step.pins)
            ASSERT_EQ(live[j].tierOf(r), 0u);
        // Capacity invariant, per tier 0: unpins commit before
        // pins, so the pin count stays within one step's slack of
        // the larger plan.
        ASSERT_LE(live[j].pinnedRows(rows),
                  std::max(old_pins[j], target.tables[j].hbmRows) +
                      mc.rowsPerStep);
    }

    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const std::uint64_t rows = model.features[j].hashSize;
        // Tier-0 membership landed exactly on the target split.
        const TierResolver want = TierResolver::split(
            target_cdfs[j], target.tables[j].hbmRows, rows);
        std::uint64_t untouched_cold = 0;
        for (std::uint64_t r = 0; r < rows; ++r) {
            ASSERT_EQ(live[j].inHbm(r), want.inHbm(r))
                << "table " << j << " row " << r;
            // Rows the migration never moved keep their original
            // tier — the SSD split survives the handoff.
            if (old_tier_of[j][r] > 0 && !want.inHbm(r) &&
                live[j].tierOf(r) == old_tier_of[j][r])
                ++untouched_cold;
        }
        EXPECT_GT(untouched_cold, 0u) << "table " << j;
        EXPECT_EQ(live[j].pinnedRows(rows),
                  target.tables[j].hbmRows);
    }
}

} // namespace
