/**
 * @file
 * Tests for the tiered-memory system spec and embedding cost model
 * (paper Sections 4.2 and 5.2).
 */

#include <gtest/gtest.h>

#include <csignal>

#include "recshard/memsim/system_spec.hh"

namespace {

using namespace recshard;

TEST(SystemSpec, PaperDefaults)
{
    const SystemSpec sys = SystemSpec::paper();
    EXPECT_EQ(sys.numGpus, 16u);
    EXPECT_EQ(sys.hbm.capacityBytes, 24ULL * GB);
    EXPECT_EQ(sys.uvm.capacityBytes, 128ULL * GB);
    EXPECT_DOUBLE_EQ(sys.hbm.bandwidth, 1555.0 * GBps);
    EXPECT_DOUBLE_EQ(sys.uvm.bandwidth, 12.8 * GBps);
    // HBM is two orders of magnitude faster than UVM (Section 2).
    EXPECT_GT(sys.hbm.bandwidth / sys.uvm.bandwidth, 100.0);
    EXPECT_EQ(sys.totalHbmBytes(), 16ULL * 24ULL * GB);
}

TEST(SystemSpec, CapacityScaleOnlyAffectsCapacity)
{
    const SystemSpec sys = SystemSpec::paper(8, 1.0 / 16.0);
    EXPECT_EQ(sys.numGpus, 8u);
    EXPECT_EQ(sys.hbm.capacityBytes, 24ULL * GB / 16ULL);
    EXPECT_DOUBLE_EQ(sys.hbm.bandwidth, 1555.0 * GBps);
}

TEST(SystemSpec, RejectsNonsense)
{
    EXPECT_EXIT(SystemSpec::paper(0), ::testing::ExitedWithCode(1),
                "GPU");
    SystemSpec sys = SystemSpec::paper();
    sys.hbm.bandwidth = 0.0;
    // A non-positive bandwidth is an internal invariant violation
    // (panic/abort), not a user error: it would silently turn every
    // downstream cost into inf through its bytes-over-bandwidth
    // terms.
    EXPECT_EXIT(sys.validate(), ::testing::KilledBySignal(SIGABRT),
                "bandwidth");
}

TEST(TierSpecDeathTest, ValidateRejectsNonPositiveBandwidth)
{
    MemoryTierSpec tier{"SSD", GB, -1.0};
    EXPECT_EXIT(tier.validate(), ::testing::KilledBySignal(SIGABRT),
                "bandwidth");
    tier.bandwidth = 2.0 * GBps;
    tier.accessLatency = -1e-6;
    EXPECT_EXIT(tier.validate(), ::testing::KilledBySignal(SIGABRT),
                "latency");
}

TEST(SystemSpec, FromTiersBuildsColdStack)
{
    const SystemSpec sys = SystemSpec::fromTiers(
        4, {MemoryTierSpec{"HBM", 24ULL * GB, 1555.0 * GBps},
            MemoryTierSpec{"DRAM", 64ULL * GB, 12.8 * GBps},
            MemoryTierSpec{"SSD", 512ULL * GB, 2.0 * GBps, 100e-6}});
    EXPECT_EQ(sys.numTiers(), 3u);
    EXPECT_EQ(sys.tier(0).name, "HBM");
    EXPECT_EQ(sys.tier(2).name, "SSD");
    EXPECT_EQ(sys.coldTiers.size(), 1u);
    EXPECT_EQ(sys.coldCapacityBytes(), (64ULL + 512ULL) * GB);
    EXPECT_EQ(sys.totalTierBytes(2), 4ULL * 512ULL * GB);
}

TEST(SystemSpecDeathTest, InvertedTierStackIsFatal)
{
    // Stack order is the only tier order the planners and the cost
    // model use, so a colder tier that is faster is a user error
    // naming both tiers.
    EXPECT_EXIT(SystemSpec::fromTiers(
                    2, {MemoryTierSpec{"HBM", GB, 1555.0 * GBps},
                        MemoryTierSpec{"SSD", GB, 2.0 * GBps},
                        MemoryTierSpec{"DRAM", GB, 12.8 * GBps}}),
                ::testing::ExitedWithCode(1), "'DRAM'.*'SSD'");
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.uvm.bandwidth = 2.0 * sys.hbm.bandwidth;
    EXPECT_EXIT(sys.validate(), ::testing::ExitedWithCode(1),
                "'UVM'.*'HBM'");
    // Equal bandwidths keep their stack order and stay legal.
    sys.uvm.bandwidth = sys.hbm.bandwidth;
    sys.validate();
}

TEST(CostModel, TimeTieredChargesTouchedTierLatencies)
{
    const SystemSpec sys = SystemSpec::fromTiers(
        1, {MemoryTierSpec{"HBM", GB, 2.0 * GBps},
            MemoryTierSpec{"DRAM", GB, 1.0 * GBps},
            MemoryTierSpec{"SSD", GB, 0.5 * GBps, 100e-6}});
    const EmbCostModel model(sys);
    EXPECT_EQ(model.numTiers(), 3u);
    // Untouched tiers pay no latency.
    EXPECT_DOUBLE_EQ(model.timeTiered({2'000'000'000ULL, 0, 0}), 1.0);
    // Touched SSD pays bandwidth time plus its fixed latency.
    EXPECT_DOUBLE_EQ(model.timeTiered({0, 0, 500'000'000ULL}),
                     1.0 + 100e-6);
    // Sum mode adds the per-tier terms.
    EXPECT_DOUBLE_EQ(
        model.timeTiered({2'000'000'000ULL, 0, 500'000'000ULL}),
        2.0 + 100e-6);
    // The two-tier path stays bit-identical to the legacy model:
    // no fixed latencies.
    EXPECT_DOUBLE_EQ(model.time(2'000'000'000ULL, 1'000'000'000ULL),
                     2.0);
}

TEST(CostModel, NearDataDropsPoolingFromByteTerm)
{
    SystemSpec sys = SystemSpec::fromTiers(
        1, {MemoryTierSpec{"HBM", GB, 1555.0 * GBps},
            MemoryTierSpec{"DRAM", GB, 12.8 * GBps},
            MemoryTierSpec{"SSD", GB, 2.0 * GBps, 100e-6}});
    FeatureSpec f;
    f.dim = 64;
    f.bytesPerElement = 4;
    const double avg_pool = 20.0;
    const EmbCostModel plain(sys);
    sys.coldTiers[0].nearData = true;
    const EmbCostModel near(sys);

    // All accesses from the cold tier: in-situ pooling cuts the
    // byte term by the pooling factor.
    const std::vector<double> fracs{0.0, 0.0, 1.0};
    const double t_plain =
        plain.estimatedEmbCostTiered(f, avg_pool, fracs, 1024);
    const double t_near =
        near.estimatedEmbCostTiered(f, avg_pool, fracs, 1024);
    const double step_bytes = avg_pool * 256.0 * 1024.0;
    EXPECT_NEAR(t_plain, 100e-6 + step_bytes / (2.0 * GBps), 1e-12);
    EXPECT_NEAR(t_near,
                100e-6 + step_bytes / avg_pool / (2.0 * GBps), 1e-12);
    EXPECT_LT(t_near, t_plain);
}

TEST(CostModel, SumCombinesTierTimes)
{
    const SystemSpec sys = SystemSpec::paper();
    const EmbCostModel model(sys);
    const double t = model.time(1555ULL * GB / 1000, // 1 ms of HBM
                                128ULL * GB / 10000); // 1 ms of UVM
    EXPECT_NEAR(t, 2e-3, 1e-6);
}

TEST(CostModel, MaxCombineTakesSlowerTier)
{
    const SystemSpec sys = SystemSpec::paper();
    const EmbCostModel model(sys, EmbCostModel::Combine::Max);
    const double t = model.time(1555ULL * GB / 1000,
                                128ULL * GB / 10000);
    EXPECT_NEAR(t, 1e-3, 1e-6);
}

TEST(CostModel, EstimatedEmbCostMatchesConstraint11)
{
    const SystemSpec sys = SystemSpec::paper();
    const EmbCostModel model(sys);
    FeatureSpec f;
    f.dim = 64;
    f.bytesPerElement = 4;

    const double avg_pool = 20.0;
    const std::uint32_t batch = 16384;
    const double pct = 0.75;
    const double step_bytes = avg_pool * 256.0 * batch;
    const double expected = pct * step_bytes / (1555.0 * GBps) +
        (1 - pct) * step_bytes / (12.8 * GBps);
    EXPECT_NEAR(model.estimatedEmbCost(f, avg_pool, pct, batch),
                expected, 1e-12);
}

TEST(CostModel, AllHbmBeatsAnyUvm)
{
    const SystemSpec sys = SystemSpec::paper();
    const EmbCostModel model(sys);
    FeatureSpec f;
    f.dim = 64;
    f.bytesPerElement = 4;
    const double all_hbm = model.estimatedEmbCost(f, 30, 1.0, 1024);
    for (double pct : {0.0, 0.25, 0.5, 0.9, 0.99})
        EXPECT_GT(model.estimatedEmbCost(f, 30, pct, 1024), all_hbm);
}

TEST(CostModel, RejectsBadFraction)
{
    const SystemSpec sys = SystemSpec::paper();
    const EmbCostModel model(sys);
    FeatureSpec f;
    f.dim = 4;
    f.bytesPerElement = 4;
    EXPECT_EXIT(model.estimatedEmbCost(f, 1.0, 1.5, 16),
                ::testing::ExitedWithCode(1), "fraction");
}

} // namespace
