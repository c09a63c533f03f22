/**
 * @file
 * Tests for the sharding strategies: baseline cost functions + the
 * greedy heuristic (paper Section 5), the exact MILP formulation
 * (Section 4.2), and the scalable RecShard solver — including a
 * property sweep pitting the scalable solver against the exact MILP
 * optimum on randomized instances.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/sharding/milp_formulation.hh"
#include "recshard/sharding/recshard_solver.hh"
#include "recshard/sharding/split_walk.hh"

namespace {

using namespace recshard;

/** Deterministic tiny workload: model + profiles. */
struct Workload
{
    ModelSpec model;
    std::vector<EmbProfile> profiles;
};

Workload
makeWorkload(std::uint32_t features, std::uint64_t rows_per_table,
             std::uint64_t seed, std::uint64_t samples = 20000)
{
    Workload w;
    w.model = makeTinyModel(features, rows_per_table, seed);
    SyntheticDataset data(w.model, seed * 31 + 7);
    w.profiles = profileDataset(data, samples, 4096);
    return w;
}

/**
 * Independent plan evaluator: estimated bottleneck GPU cost using
 * the profiled CDFs (not any solver's internal quantization).
 */
double
planBottleneckCost(const Workload &w, const SystemSpec &sys,
                   const ShardingPlan &plan, std::uint32_t batch)
{
    const EmbCostModel cost(sys);
    std::vector<double> gpu_cost(sys.numGpus, 0.0);
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const auto &f = w.model.features[j];
        const auto &p = w.profiles[j];
        const double pct =
            p.cdf.accessFraction(plan.tables[j].hbmRows);
        gpu_cost[plan.tables[j].gpu] += p.coverage *
            cost.estimatedEmbCost(f, p.avgPool, pct, batch);
    }
    double worst = 0.0;
    for (const double c : gpu_cost)
        worst = std::max(worst, c);
    return worst;
}

// ------------------------------------------------------- baselines

TEST(Baselines, CostFormulasMatchPaper)
{
    FeatureSpec f;
    f.hashSize = 100000;
    f.dim = 64;
    EmbProfile p;
    p.avgPool = 25.0;
    EXPECT_DOUBLE_EQ(baselineCost(BaselineCost::Size, f, p),
                     100000.0 * 64);
    EXPECT_DOUBLE_EQ(baselineCost(BaselineCost::Lookup, f, p),
                     25.0 * 64);
    EXPECT_DOUBLE_EQ(baselineCost(BaselineCost::SizeLookup, f, p),
                     25.0 * 64 * 5.0); // log10(1e5) == 5
}

TEST(Baselines, GreedyPlacesWholeTablesOnly)
{
    const Workload w = makeWorkload(8, 2000, 3);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    for (const auto kind : {BaselineCost::Size, BaselineCost::Lookup,
                            BaselineCost::SizeLookup}) {
        const ShardingPlan plan = greedyShard(kind, w.model,
                                              w.profiles, sys);
        for (std::size_t j = 0; j < plan.tables.size(); ++j) {
            const auto rows = plan.tables[j].hbmRows;
            EXPECT_TRUE(rows == 0 ||
                        rows == w.model.features[j].hashSize)
                << "baseline split a table";
        }
    }
}

TEST(Baselines, GreedySpillsToUvmWhenHbmSaturates)
{
    const Workload w = makeWorkload(6, 4000, 5);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    // HBM holds only ~2 tables per GPU; the rest must go to UVM.
    const std::uint64_t table_bytes =
        w.model.features[0].tableBytes();
    sys.hbm.capacityBytes = 2 * table_bytes + table_bytes / 2;
    sys.uvm.capacityBytes = 100 * table_bytes;

    const ShardingPlan plan = greedyShard(BaselineCost::Size, w.model,
                                          w.profiles, sys);
    plan.validate(w.model, sys);
    std::uint32_t in_uvm = 0;
    for (const auto &t : plan.tables)
        in_uvm += t.hbmRows == 0;
    EXPECT_GT(in_uvm, 0u);
}

TEST(Baselines, GreedyBalancesItsOwnCost)
{
    const Workload w = makeWorkload(12, 1000, 9);
    const SystemSpec sys = SystemSpec::paper(3, 1.0);
    const ShardingPlan plan = greedyShard(BaselineCost::Lookup,
                                          w.model, w.profiles, sys);
    // Accumulate the strategy's own cost per GPU; the greedy rule
    // keeps the max within one largest-item of the min.
    std::vector<double> load(sys.numGpus, 0.0);
    double biggest = 0.0;
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const double c = baselineCost(BaselineCost::Lookup,
                                      w.model.features[j],
                                      w.profiles[j]);
        load[plan.tables[j].gpu] += c;
        biggest = std::max(biggest, c);
    }
    const double max_load = *std::max_element(load.begin(),
                                              load.end());
    const double min_load = *std::min_element(load.begin(),
                                              load.end());
    EXPECT_LE(max_load - min_load, biggest + 1e-9);
}

TEST(Baselines, InfeasibleModelIsFatal)
{
    const Workload w = makeWorkload(4, 2000, 11);
    SystemSpec sys = SystemSpec::paper(1, 1.0);
    sys.hbm.capacityBytes = 1024;
    sys.uvm.capacityBytes = 1024;
    EXPECT_EXIT(greedyShard(BaselineCost::Size, w.model, w.profiles,
                            sys),
                ::testing::ExitedWithCode(1), "does not fit");
}

// ------------------------------------------------------ exact MILP

/**
 * Brute-force optimum of the quantized sharding problem: enumerate
 * every (assignment, step) combination, reject capacity violations,
 * and minimize the max per-GPU coverage-weighted cost.
 */
double
bruteForceOptimum(const Workload &w, const SystemSpec &sys,
                  unsigned steps, std::uint32_t batch)
{
    const auto inputs = buildShardInputs(w.model, w.profiles, steps);
    const EmbCostModel cost(sys);
    const auto J = static_cast<std::uint32_t>(inputs.size());
    const std::uint32_t M = sys.numGpus;

    double best = kLpInf;
    std::vector<unsigned> step(J, 0);
    while (true) {
        // All assignments for this step tuple.
        const auto combos = static_cast<std::uint64_t>(
            std::pow(static_cast<double>(M), J) + 0.5);
        for (std::uint64_t a = 0; a < combos; ++a) {
            std::uint64_t code = a;
            std::vector<std::uint64_t> hbm(M, 0), uvm(M, 0);
            std::vector<double> c(M, 0.0);
            bool ok = true;
            for (std::uint32_t j = 0; j < J && ok; ++j) {
                const auto m = static_cast<std::uint32_t>(code % M);
                code /= M;
                const std::uint64_t mem = inputs[j].memAtStep(
                    step[j]);
                hbm[m] += mem;
                uvm[m] += inputs[j].tableBytes - mem;
                c[m] += inputs[j].coverage *
                    cost.twoTierCost(
                        inputs[j].stepBytes(batch),
                        static_cast<double>(step[j]) / steps);
                ok = hbm[m] <= sys.hbm.capacityBytes &&
                    uvm[m] <= sys.uvm.capacityBytes;
            }
            if (!ok)
                continue;
            best = std::min(best,
                            *std::max_element(c.begin(), c.end()));
        }
        // Odometer over step tuples.
        std::uint32_t j = 0;
        while (j < J && ++step[j] > steps)
            step[j++] = 0;
        if (j == J)
            break;
    }
    return best;
}

TEST(MilpShard, MatchesBruteForceUnconstrained)
{
    const Workload w = makeWorkload(4, 500, 13);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    MilpShardOptions opts;
    opts.icdfSteps = 4;
    const MilpShardResult res = milpShardPlan(w.model, w.profiles,
                                              sys, opts);
    ASSERT_TRUE(res.feasible);
    const double truth = bruteForceOptimum(w, sys, 4,
                                           opts.batchSize);
    EXPECT_LE(res.milp.objective, truth * 1.03 + 1e-12);
    EXPECT_GE(res.milp.objective, truth * 0.999 - 1e-12);
}

TEST(MilpShard, MatchesBruteForceConstrained)
{
    const Workload w = makeWorkload(4, 2500, 47);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = w.model.totalBytes() / 5;
    sys.uvm.capacityBytes = w.model.totalBytes();
    MilpShardOptions opts;
    opts.icdfSteps = 4;
    const MilpShardResult res = milpShardPlan(w.model, w.profiles,
                                              sys, opts);
    ASSERT_TRUE(res.feasible);
    res.plan.validate(w.model, sys);
    const double truth = bruteForceOptimum(w, sys, 4,
                                           opts.batchSize);
    EXPECT_LE(res.milp.objective, truth * 1.03 + 1e-12);
    EXPECT_GE(res.milp.objective, truth * 0.999 - 1e-12);
}

TEST(MilpShard, RespectsCapacityAndSplits)
{
    const Workload w = makeWorkload(4, 3000, 17);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    // Budget for roughly half the model in HBM.
    sys.hbm.capacityBytes = w.model.totalBytes() / 4;
    sys.uvm.capacityBytes = w.model.totalBytes();

    MilpShardOptions opts;
    opts.icdfSteps = 5;
    const MilpShardResult res = milpShardPlan(w.model, w.profiles,
                                              sys, opts);
    ASSERT_TRUE(res.feasible);
    res.plan.validate(w.model, sys); // capacity double-check
    // At least one table must be split or spilled.
    bool any_partial = false;
    for (std::size_t j = 0; j < res.plan.tables.size(); ++j) {
        const auto rows = res.plan.tables[j].hbmRows;
        any_partial |= rows < w.model.features[j].hashSize;
    }
    EXPECT_TRUE(any_partial);
}

TEST(MilpShard, TooBigInstanceIsFatal)
{
    const Workload w = makeWorkload(4, 100, 19);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    MilpShardOptions opts;
    opts.maxBinaries = 10;
    EXPECT_EXIT(milpShardPlan(w.model, w.profiles, sys, opts),
                ::testing::ExitedWithCode(1), "binaries");
}

// ------------------------------------------------ RecShard solver

TEST(RecShardSolver, ValidPlanAndFullHbmWhenItFits)
{
    const Workload w = makeWorkload(8, 1000, 23);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    RecShardStats stats;
    const ShardingPlan plan = recShardPlan(w.model, w.profiles, sys,
                                           {}, &stats);
    plan.validate(w.model, sys);
    EXPECT_GT(stats.bottleneckCost, 0.0);
    // Plenty of HBM: all *profiled* accesses should be HBM-resident.
    for (std::size_t j = 0; j < plan.tables.size(); ++j)
        EXPECT_DOUBLE_EQ(plan.tables[j].hbmAccessFraction, 1.0);
}

TEST(RecShardSolver, CapacityConstrainedKeepsHotRows)
{
    Workload w = makeWorkload(6, 4000, 29);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = w.model.totalBytes() / 6;
    sys.uvm.capacityBytes = w.model.totalBytes();

    const ShardingPlan plan = recShardPlan(w.model, w.profiles, sys);
    plan.validate(w.model, sys);

    // Under pressure the solver must still cover most accesses from
    // HBM (skewed CDFs make hot rows cheap).
    double worst_pct = 1.0;
    double total_pct = 0.0;
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        worst_pct = std::min(worst_pct,
                             plan.tables[j].hbmAccessFraction);
        total_pct += plan.tables[j].hbmAccessFraction;
    }
    EXPECT_GT(total_pct / static_cast<double>(plan.tables.size()),
              0.5);
}

TEST(RecShardSolver, BeatsGreedyBaselinesUnderPressure)
{
    const Workload w = makeWorkload(10, 5000, 31);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = w.model.totalBytes() / 8;
    sys.uvm.capacityBytes = 2 * w.model.totalBytes();

    const std::uint32_t batch = 4096;
    RecShardOptions opts;
    opts.batchSize = batch;
    const ShardingPlan rs = recShardPlan(w.model, w.profiles, sys,
                                         opts);
    const double rs_cost = planBottleneckCost(w, sys, rs, batch);
    for (const auto kind : {BaselineCost::Size, BaselineCost::Lookup,
                            BaselineCost::SizeLookup}) {
        const ShardingPlan base = greedyShard(kind, w.model,
                                              w.profiles, sys);
        const double base_cost = planBottleneckCost(w, sys, base,
                                                    batch);
        EXPECT_LT(rs_cost, base_cost)
            << "RecShard lost to " << baselineCostName(kind);
    }
}

TEST(RecShardSolver, AblationSwitchesChangeTheObjective)
{
    const Workload w = makeWorkload(8, 3000, 37);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    sys.hbm.capacityBytes = w.model.totalBytes() / 6;
    sys.uvm.capacityBytes = w.model.totalBytes();

    RecShardOptions full;
    RecShardOptions cdf_only;
    cdf_only.ablation.usePooling = false;
    cdf_only.ablation.useCoverage = false;

    const ShardingPlan a = recShardPlan(w.model, w.profiles, sys,
                                        full);
    const ShardingPlan b = recShardPlan(w.model, w.profiles, sys,
                                        cdf_only);
    // The full formulation should be at least as good under the
    // true (fully weighted) objective.
    EXPECT_LE(planBottleneckCost(w, sys, a, 16384),
              planBottleneckCost(w, sys, b, 16384) * 1.0001);
}

TEST(RecShardSolver, InfeasibleModelIsFatal)
{
    const Workload w = makeWorkload(4, 2000, 41);
    SystemSpec sys = SystemSpec::paper(1, 1.0);
    sys.hbm.capacityBytes = 1024;
    sys.uvm.capacityBytes = 1024;
    EXPECT_EXIT(recShardPlan(w.model, w.profiles, sys),
                ::testing::ExitedWithCode(1), "exceeds");
}

/**
 * Golden pins: per-table placement, local-search counts and the
 * bottleneck bits of three small solves, recorded from the
 * heap-based split the block walk replaced. The first instance
 * accepts both moves and swaps, the third only swaps.
 */
struct GoldenSolve
{
    std::uint32_t features;
    std::uint64_t rows;
    std::uint64_t seed;
    std::uint32_t gpus;
    std::uint64_t hbmDiv;  //!< per-GPU HBM = model bytes / hbmDiv
    std::uint64_t uvmDiv;  //!< per-GPU UVM = model bytes / uvmDiv
    unsigned icdfSteps;
    std::uint32_t moves;
    std::uint32_t swaps;
    double bottleneckCost;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> tables;
};

TEST(RecShardSolver, GoldenPlansArePinned)
{
    const std::vector<GoldenSolve> golden = {
        {12, 4000, 17, 4, 4, 1, 20, 4, 4, 0x1.f7333d9157bf3p-19,
         {{0, 2446}, {1, 8179}, {2, 214}, {3, 712}, {0, 5801},
          {2, 2904}, {3, 16}, {2, 4701}, {3, 135}, {3, 10487},
          {1, 1795}, {2, 4176}}},
        {20, 3000, 9, 4, 12, 1, 100, 3, 0, 0x1.3ade450c38607p-14,
         {{3, 13}, {0, 2361}, {0, 48}, {1, 16}, {3, 16}, {3, 476},
          {1, 4398}, {3, 55}, {1, 16}, {1, 16}, {0, 1157}, {3, 517},
          {3, 2655}, {3, 95}, {1, 248}, {3, 302}, {0, 994}, {3, 871},
          {2, 4910}, {1, 297}}},
        {16, 4000, 17, 3, 12, 2, 100, 0, 3, 0x1.b6e99cde98c43p-16,
         {{1, 785}, {0, 4250}, {0, 128}, {0, 749}, {0, 28}, {1, 306},
          {0, 16}, {2, 3942}, {0, 40}, {2, 970}, {1, 1720},
          {1, 1258}, {0, 106}, {2, 408}, {0, 16}, {1, 1256}}},
    };
    for (const GoldenSolve &g : golden) {
        SCOPED_TRACE(g.features);
        const Workload w = makeWorkload(g.features, g.rows, g.seed,
                                        8000);
        SystemSpec sys = SystemSpec::paper(g.gpus, 1.0);
        sys.hbm.capacityBytes = w.model.totalBytes() / g.hbmDiv;
        sys.uvm.capacityBytes = w.model.totalBytes() / g.uvmDiv;
        RecShardOptions opts;
        opts.batchSize = 4096;
        opts.icdfSteps = g.icdfSteps;
        RecShardStats stats;
        const ShardingPlan plan = recShardPlan(w.model, w.profiles,
                                               sys, opts, &stats);
        EXPECT_EQ(stats.moves, g.moves);
        EXPECT_EQ(stats.swaps, g.swaps);
        std::uint64_t got_bits = 0, want_bits = 0;
        std::memcpy(&got_bits, &stats.bottleneckCost, sizeof(double));
        std::memcpy(&want_bits, &g.bottleneckCost, sizeof(double));
        EXPECT_EQ(got_bits, want_bits) << stats.bottleneckCost;
        ASSERT_EQ(plan.tables.size(), g.tables.size());
        for (std::size_t j = 0; j < g.tables.size(); ++j) {
            EXPECT_EQ(plan.tables[j].gpu, g.tables[j].first) << j;
            EXPECT_EQ(plan.tables[j].hbmRows, g.tables[j].second) << j;
        }
    }
}

/**
 * Golden pin of a solve large enough for the solver's worker-team
 * phases (64 EMBs on 8 GPUs), recorded from the serial solver
 * before any phase ran on the team. It accepts moves and swaps and,
 * like every solve short of the round cap, ends on a swap search
 * that finds nothing. Two solves in one process must agree.
 */
TEST(RecShardSolver, ParallelSizedGoldenPlanIsPinned)
{
    const GoldenSolve g = {
        64, 3000, 3, 8, 8, 4, 100, 20, 10, 0x1.ddcfcb10ae18bp-18,
        {{6, 394}, {2, 928}, {1, 2260}, {1, 40},
         {4, 25}, {4, 1379}, {6, 773}, {5, 12766},
         {6, 97}, {2, 2047}, {5, 16}, {1, 1004},
         {0, 16}, {7, 83}, {5, 1557}, {0, 11441},
         {6, 6980}, {5, 137}, {4, 152}, {7, 40},
         {0, 446}, {3, 4970}, {2, 33}, {6, 26},
         {1, 9174}, {0, 45}, {5, 119}, {3, 2462},
         {7, 16}, {0, 8763}, {5, 56}, {7, 23733},
         {1, 4984}, {1, 1805}, {0, 69}, {6, 11813},
         {5, 537}, {1, 16}, {5, 181}, {0, 16},
         {0, 240}, {0, 2807}, {2, 55}, {6, 39},
         {1, 16}, {6, 16}, {5, 4494}, {3, 19},
         {5, 408}, {3, 143}, {3, 2074}, {3, 114},
         {4, 159}, {3, 13544}, {3, 465}, {4, 16},
         {3, 16}, {4, 355}, {0, 58}, {4, 40},
         {5, 16}, {4, 11942}, {4, 287}, {2, 20903}}};
    const Workload w = makeWorkload(g.features, g.rows, g.seed, 8000);
    SystemSpec sys = SystemSpec::paper(g.gpus, 1.0);
    sys.hbm.capacityBytes = w.model.totalBytes() / g.hbmDiv;
    sys.uvm.capacityBytes = w.model.totalBytes() / g.uvmDiv;
    RecShardOptions opts;
    opts.batchSize = 4096;
    opts.icdfSteps = g.icdfSteps;
    for (int run = 0; run < 2; ++run) {
        SCOPED_TRACE(run);
        RecShardStats stats;
        const ShardingPlan plan = recShardPlan(w.model, w.profiles,
                                               sys, opts, &stats);
        EXPECT_EQ(stats.moves, g.moves);
        EXPECT_EQ(stats.swaps, g.swaps);
        std::uint64_t got_bits = 0, want_bits = 0;
        std::memcpy(&got_bits, &stats.bottleneckCost, sizeof(double));
        std::memcpy(&want_bits, &g.bottleneckCost, sizeof(double));
        EXPECT_EQ(got_bits, want_bits) << stats.bottleneckCost;
        ASSERT_EQ(plan.tables.size(), g.tables.size());
        for (std::size_t j = 0; j < g.tables.size(); ++j) {
            EXPECT_EQ(plan.tables[j].gpu, g.tables[j].first) << j;
            EXPECT_EQ(plan.tables[j].hbmRows, g.tables[j].second) << j;
        }
    }
}

// ------------------------------------ per-GPU split vs heap oracle

/** What the heap oracle saw, so the sweep can prove its coverage. */
struct HeapTrace
{
    bool spilled = false;
};

/**
 * Reference split: a max-heap offers each member's next increment
 * (profiled ICDF step or tail chunk) and pops the best gain per
 * byte; an increment that does not fit ends its sequence. Then a
 * forced spill when UVM overflows. This is the solver's split as it
 * stood before the block walk, kept as the oracle the walk must
 * match bit for bit.
 */
GpuBudgetSplit
heapSplit(const std::vector<EmbShardInput> &inputs,
          const EmbCostModel &cost_model, std::uint32_t batch,
          const std::vector<std::uint32_t> &members,
          std::uint64_t cap_hbm, std::uint64_t cap_uvm,
          HeapTrace &trace)
{
    const double bw_hbm = cost_model.hbmBandwidth();
    const double bw_uvm = cost_model.uvmBandwidth();
    struct Curve
    {
        double wBytes = 0.0;
        double stepGain = 0.0;
        double tailGainPerRow = 0.0;
    };
    std::vector<Curve> curves(inputs.size());
    for (const std::uint32_t j : members) {
        const auto &in = inputs[j];
        Curve &c = curves[j];
        c.wBytes = in.coverage * in.avgPool *
            static_cast<double>(in.rowBytes) *
            static_cast<double>(batch);
        const double gain_unit = c.wBytes * (1.0 / bw_uvm - 1.0 / bw_hbm);
        c.stepGain = gain_unit * (1.0 - in.missingMass) / in.numSteps();
        c.tailGainPerRow = in.tailRows == 0
            ? 0.0
            : gain_unit * in.missingMass /
                static_cast<double>(in.tailRows);
    }
    auto true_pct = [](const EmbShardInput &in, unsigned step,
                       std::uint64_t tail_taken) {
        const double profiled = (1.0 - in.missingMass) *
            static_cast<double>(step) / in.numSteps();
        const double tail = in.tailRows == 0
            ? in.missingMass
            : in.missingMass * static_cast<double>(tail_taken) /
                static_cast<double>(in.tailRows);
        return profiled + tail;
    };

    GpuBudgetSplit out;
    out.step.assign(members.size(), 0);
    out.hbmRows.assign(members.size(), 0);
    out.tailTaken.assign(members.size(), 0);

    struct Item
    {
        double ratio;
        std::uint32_t member;
        bool isTail;
        unsigned nextStep;
        std::uint64_t deltaRows;
        std::uint64_t deltaBytes;
    };
    auto cmp = [](const Item &a, const Item &b) {
        if (a.ratio != b.ratio)
            return a.ratio < b.ratio;
        if (a.member != b.member)
            return a.member > b.member;
        return a.isTail && !b.isTail;
    };
    std::priority_queue<Item, std::vector<Item>, decltype(cmp)>
        heap(cmp);

    auto push_step = [&](std::uint32_t k, unsigned next_step) {
        const auto &in = inputs[members[k]];
        if (next_step > in.numSteps())
            return;
        const std::uint64_t delta =
            (in.icdfRows[next_step] - in.icdfRows[next_step - 1]) *
            in.rowBytes;
        const double gain = curves[members[k]].stepGain;
        const double ratio = delta == 0
            ? std::numeric_limits<double>::infinity()
            : gain / static_cast<double>(delta);
        heap.push(Item{ratio, k, false, next_step, 0, delta});
    };
    auto push_tail = [&](std::uint32_t k) {
        const auto &in = inputs[members[k]];
        const std::uint64_t left = in.tailRows - out.tailTaken[k];
        if (left == 0)
            return;
        const std::uint64_t chunk =
            std::min(left, std::max<std::uint64_t>(
                               1, in.tailRows / 8));
        const double gain = curves[members[k]].tailGainPerRow *
            static_cast<double>(chunk);
        const std::uint64_t bytes = chunk * in.rowBytes;
        const double ratio = bytes == 0
            ? std::numeric_limits<double>::infinity()
            : gain / static_cast<double>(bytes);
        heap.push(Item{ratio, k, true, 0, chunk, bytes});
    };

    std::uint64_t budget = cap_hbm;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        push_step(k, 1);
        push_tail(k);
    }
    while (!heap.empty()) {
        const Item item = heap.top();
        heap.pop();
        if (item.deltaBytes > budget)
            continue;
        budget -= item.deltaBytes;
        if (item.isTail) {
            out.tailTaken[item.member] += item.deltaRows;
            push_tail(item.member);
        } else {
            out.step[item.member] = item.nextStep;
            push_step(item.member, item.nextStep + 1);
        }
    }
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        out.hbmRows[k] =
            inputs[members[k]].icdfRows[out.step[k]] +
            out.tailTaken[k];
    }

    std::uint64_t uvm_bytes = 0;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        const auto &in = inputs[members[k]];
        uvm_bytes += in.tableBytes - out.hbmRows[k] * in.rowBytes;
    }
    if (uvm_bytes > cap_uvm) {
        trace.spilled = true;
        std::uint64_t need = uvm_bytes - cap_uvm;
        std::vector<std::uint32_t> order(members.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const auto ta = inputs[members[a]].hashSize -
                          out.hbmRows[a];
                      const auto tb = inputs[members[b]].hashSize -
                          out.hbmRows[b];
                      if (ta != tb)
                          return ta > tb;
                      return a < b;
                  });
        for (const std::uint32_t k : order) {
            if (need == 0)
                break;
            const auto &in = inputs[members[k]];
            const std::uint64_t movable_rows = std::min(
                in.hashSize - out.hbmRows[k], budget / in.rowBytes);
            const std::uint64_t moved = std::min(
                movable_rows,
                (need + in.rowBytes - 1) / in.rowBytes);
            out.hbmRows[k] += moved;
            const std::uint64_t tail_part = std::min(
                moved, in.tailRows - out.tailTaken[k]);
            out.tailTaken[k] += tail_part;
            budget -= moved * in.rowBytes;
            need -= std::min(need, moved * in.rowBytes);
        }
        if (need > 0)
            return out;
    }

    out.feasible = true;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        const auto &in = inputs[members[k]];
        out.cost += cost_model.twoTierCost(
            curves[members[k]].wBytes,
            true_pct(in, out.step[k], out.tailTaken[k]));
    }
    return out;
}

/**
 * Random EMB biased towards the split's corner cases: integer ICDF
 * deltas that rise and fall, zero-row steps, power-of-two geometry
 * (so gains per byte tie exactly across members and between a
 * member's steps and its tail chunks), and tail-only tables.
 */
EmbShardInput
randomSplitEmb(Rng &rng)
{
    auto pick = [&](std::initializer_list<std::uint64_t> v) {
        const auto last = static_cast<std::int64_t>(v.size()) - 1;
        return *(v.begin() + rng.uniformInt(0, last));
    };
    EmbShardInput in;
    in.rowBytes = rng.bernoulli(0.8) ? pick({4, 8, 16, 64})
                                     : static_cast<std::uint64_t>(
                                           rng.uniformInt(1, 100));
    in.avgPool = rng.bernoulli(0.7)
        ? static_cast<double>(pick({1, 2, 4}))
        : rng.uniform(0.5, 8.0);
    in.coverage = rng.bernoulli(0.7) ? 1.0 : rng.uniform(0.1, 1.0);
    const bool tail_only = rng.bernoulli(0.1);
    const auto steps = static_cast<unsigned>(
        rng.bernoulli(0.7) ? pick({1, 2, 4, 8}) : rng.uniformInt(1, 20));
    in.icdfRows.assign(steps + 1, 0);
    for (unsigned s = 1; s <= steps; ++s) {
        std::uint64_t delta = 0;
        if (!tail_only)
            delta = rng.bernoulli(0.7)
                ? pick({0, 1, 2, 4})
                : static_cast<std::uint64_t>(rng.uniformInt(0, 60));
        in.icdfRows[s] = in.icdfRows[s - 1] + delta;
    }
    in.tailRows = rng.bernoulli(0.7) ? pick({0, 1, 5, 8, 16, 64})
                                     : static_cast<std::uint64_t>(
                                           rng.uniformInt(0, 300));
    if (tail_only && in.tailRows == 0)
        in.tailRows = 16;
    if (tail_only)
        in.missingMass = 1.0;
    else if (in.tailRows > 0)
        in.missingMass = rng.bernoulli(0.6) ? 0.5 : rng.uniform(0.0, 1.0);
    in.hashSize = in.icdfRows.back() + in.tailRows;
    in.tableBytes = in.hashSize * in.rowBytes;
    return in;
}

TEST(RecShardSolver, SplitWalkMatchesHeapOracleBitForBit)
{
    Rng rng(2024);
    const SystemSpec sys = SystemSpec::paper(1, 1.0);
    const EmbCostModel sum_model(sys, EmbCostModel::Combine::Sum);
    const EmbCostModel max_model(sys, EmbCostModel::Combine::Max);

    // Corner cases the sweep must have hit for the check to count.
    int non_monotone = 0, zero_byte_step = 0, tied_members = 0,
        tied_step_tail = 0, tail_only = 0, spilled = 0, infeasible = 0;

    for (int trial = 0; trial < 3000; ++trial) {
        // A pool with clones, so members share exact gain-per-byte.
        std::vector<EmbShardInput> inputs;
        const auto pool = static_cast<std::uint32_t>(
            rng.uniformInt(1, 10));
        for (std::uint32_t j = 0; j < pool; ++j) {
            if (j > 0 && rng.bernoulli(0.25))
                inputs.push_back(inputs[static_cast<std::size_t>(
                    rng.uniformInt(0, j - 1))]);
            else
                inputs.push_back(randomSplitEmb(rng));
        }
        std::vector<std::uint32_t> members;
        for (std::uint32_t j = 0; j < pool; ++j)
            if (rng.bernoulli(0.8))
                members.push_back(j);
        for (std::size_t k = members.size(); k > 1; --k)
            std::swap(members[k - 1],
                      members[static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(k) - 1))]);

        std::uint64_t total = 0;
        for (const std::uint32_t j : members)
            total += inputs[j].tableBytes;
        const double hbm_frac = rng.bernoulli(0.1)
            ? 0.0
            : rng.uniform(0.0, 1.1);
        const double uvm_frac = rng.bernoulli(0.5)
            ? 2.0
            : rng.uniform(0.0, 1.0);
        const auto cap_hbm = static_cast<std::uint64_t>(
            hbm_frac * static_cast<double>(total));
        const auto cap_uvm = static_cast<std::uint64_t>(
            uvm_frac * static_cast<double>(total));
        const std::uint32_t batch = rng.bernoulli(0.5) ? 4096 : 1000;
        const EmbCostModel &model =
            rng.bernoulli(0.8) ? sum_model : max_model;

        HeapTrace trace;
        const GpuBudgetSplit want = heapSplit(
            inputs, model, batch, members, cap_hbm, cap_uvm, trace);
        SplitWalker walker(inputs, model, batch);
        const GpuBudgetSplit got = walker.split(
            members, walker.walkList(members), cap_hbm, cap_uvm);
        ASSERT_EQ(got.feasible, want.feasible) << "trial " << trial;
        ASSERT_EQ(got.step, want.step) << "trial " << trial;
        ASSERT_EQ(got.tailTaken, want.tailTaken) << "trial " << trial;
        ASSERT_EQ(got.hbmRows, want.hbmRows) << "trial " << trial;
        std::uint64_t got_bits = 0, want_bits = 0;
        std::memcpy(&got_bits, &got.cost, sizeof(double));
        std::memcpy(&want_bits, &want.cost, sizeof(double));
        ASSERT_EQ(got_bits, want_bits) << "trial " << trial;

        // The local search's pricing path: the same members with one
        // removed and/or a non-member appended, walked from the
        // unchanged members' list.
        std::vector<std::uint32_t> outsiders;
        for (std::uint32_t j = 0; j < pool; ++j)
            if (std::find(members.begin(), members.end(), j) ==
                members.end())
                outsiders.push_back(j);
        const std::uint32_t skip =
            members.empty() || rng.bernoulli(0.3)
            ? SplitWalker::kNone
            : static_cast<std::uint32_t>(rng.uniformInt(
                  0, static_cast<std::int64_t>(members.size()) - 1));
        const std::uint32_t arrive =
            outsiders.empty() || rng.bernoulli(0.2)
            ? SplitWalker::kNone
            : outsiders[static_cast<std::size_t>(rng.uniformInt(
                  0, static_cast<std::int64_t>(outsiders.size()) - 1))];
        std::vector<std::uint32_t> cand;
        for (std::uint32_t k = 0; k < members.size(); ++k)
            if (k != skip)
                cand.push_back(members[k]);
        if (arrive != SplitWalker::kNone)
            cand.push_back(arrive);
        HeapTrace cand_trace;
        const GpuBudgetSplit cand_want = heapSplit(
            inputs, model, batch, cand, cap_hbm, cap_uvm, cand_trace);
        const SplitWalker::Priced cand_got =
            walker.price(members, walker.walkList(members), skip,
                         arrive, cap_hbm, cap_uvm);
        ASSERT_EQ(cand_got.feasible, cand_want.feasible)
            << "trial " << trial;
        std::memcpy(&got_bits, &cand_got.cost, sizeof(double));
        std::memcpy(&want_bits, &cand_want.cost, sizeof(double));
        ASSERT_EQ(got_bits, want_bits) << "trial " << trial;

        spilled += trace.spilled;
        infeasible += !want.feasible;
        // Classify the instance from the members' gain-per-byte
        // sequences (same arithmetic as the oracle's curves).
        const double gain_unit_per_w =
            1.0 / model.uvmBandwidth() - 1.0 / model.hbmBandwidth();
        std::vector<std::vector<double>> ratios;
        for (const std::uint32_t j : members) {
            const auto &in = inputs[j];
            const double w = in.coverage * in.avgPool *
                static_cast<double>(in.rowBytes) *
                static_cast<double>(batch);
            const double gain_unit = w * gain_unit_per_w;
            const double step_gain =
                gain_unit * (1.0 - in.missingMass) / in.numSteps();
            std::vector<double> r;
            bool ratio_rose = false, zero = false;
            std::uint64_t prev = 0;
            for (unsigned s = 1; s <= in.numSteps(); ++s) {
                const std::uint64_t d = in.icdfRows[s] - in.icdfRows[s - 1];
                zero |= d == 0;
                ratio_rose |= s > 1 && d > 0 && d < prev;
                prev = d;
                if (d > 0)
                    r.push_back(step_gain /
                                static_cast<double>(d * in.rowBytes));
            }
            non_monotone += ratio_rose;
            zero_byte_step += zero;
            tail_only += in.icdfRows.back() == 0 && in.tailRows > 0;
            if (in.tailRows > 0) {
                const double per_row = gain_unit * in.missingMass /
                    static_cast<double>(in.tailRows);
                const std::uint64_t chunk =
                    std::max<std::uint64_t>(1, in.tailRows / 8);
                const double tail_ratio =
                    per_row * static_cast<double>(chunk) /
                    static_cast<double>(chunk * in.rowBytes);
                tied_step_tail += std::find(r.begin(), r.end(),
                                            tail_ratio) != r.end();
            }
            ratios.push_back(std::move(r));
        }
        auto members_tie = [&] {
            for (std::size_t a = 0; a < ratios.size(); ++a)
                for (std::size_t b = a + 1; b < ratios.size(); ++b)
                    for (const double x : ratios[a])
                        if (std::find(ratios[b].begin(),
                                      ratios[b].end(),
                                      x) != ratios[b].end())
                            return true;
            return false;
        };
        tied_members += members_tie();
    }
    EXPECT_GT(non_monotone, 0);
    EXPECT_GT(zero_byte_step, 0);
    EXPECT_GT(tied_members, 0);
    EXPECT_GT(tied_step_tail, 0);
    EXPECT_GT(tail_only, 0);
    EXPECT_GT(spilled, 0);
    EXPECT_GT(infeasible, 0);
}

/**
 * walkList() before it merged: the members' block runs concatenated
 * and sorted by the walk order. Each run is the one-member list of
 * its EMB. Kept as the reference the merge must match.
 */
std::vector<SplitWalker::Block>
sortedWalkList(const SplitWalker &walker,
               const std::vector<std::uint32_t> &members)
{
    std::vector<SplitWalker::Block> list;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        for (SplitWalker::Block b : walker.walkList({members[k]})) {
            b.pos = k;
            list.push_back(b);
        }
    }
    std::sort(list.begin(), list.end(),
              [](const SplitWalker::Block &a,
                 const SplitWalker::Block &b) {
                  if (a.ratio != b.ratio)
                      return a.ratio > b.ratio;
                  if (a.pos != b.pos)
                      return a.pos < b.pos;
                  if (a.isTail != b.isTail)
                      return !a.isTail;
                  return a.begin < b.begin;
              });
    return list;
}

TEST(RecShardSolver, MergedWalkListMatchesSortedConcatenation)
{
    Rng rng(2025);
    const SystemSpec sys = SystemSpec::paper(1, 1.0);
    const EmbCostModel model(sys);
    int shared_ratio = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        // Clones share every ratio exactly, so only the member
        // position orders their blocks.
        std::vector<EmbShardInput> inputs;
        const auto pool = static_cast<std::uint32_t>(
            rng.uniformInt(1, trial < 1000 ? 12 : 80));
        for (std::uint32_t j = 0; j < pool; ++j) {
            if (j > 0 && rng.bernoulli(0.4))
                inputs.push_back(inputs[static_cast<std::size_t>(
                    rng.uniformInt(0, j - 1))]);
            else
                inputs.push_back(randomSplitEmb(rng));
        }
        std::vector<std::uint32_t> members;
        for (std::uint32_t j = 0; j < pool; ++j)
            if (rng.bernoulli(0.8))
                members.push_back(j);
        for (std::size_t k = members.size(); k > 1; --k)
            std::swap(members[k - 1],
                      members[static_cast<std::size_t>(rng.uniformInt(
                          0, static_cast<std::int64_t>(k) - 1))]);
        const SplitWalker walker(inputs, model, 4096);
        const auto got = walker.walkList(members);
        const auto want = sortedWalkList(walker, members);
        ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
        for (std::size_t i = 0; i < got.size(); ++i) {
            std::uint64_t got_bits = 0, want_bits = 0;
            std::memcpy(&got_bits, &got[i].ratio, sizeof(double));
            std::memcpy(&want_bits, &want[i].ratio, sizeof(double));
            ASSERT_EQ(got_bits, want_bits) << "trial " << trial << " " << i;
            ASSERT_EQ(got[i].bytes, want[i].bytes);
            ASSERT_EQ(got[i].tailRows, want[i].tailRows);
            ASSERT_EQ(got[i].emb, want[i].emb);
            ASSERT_EQ(got[i].pos, want[i].pos);
            ASSERT_EQ(got[i].begin, want[i].begin);
            ASSERT_EQ(got[i].end, want[i].end);
            ASSERT_EQ(got[i].isTail, want[i].isTail);
            shared_ratio += i > 0 && got[i].ratio == got[i - 1].ratio &&
                got[i].pos != got[i - 1].pos;
        }
    }
    EXPECT_GT(shared_ratio, 0); // members did tie on exact ratios
}

/**
 * Property sweep: the scalable solver's plan must land within a
 * small factor of the exact MILP optimum (both evaluated by the
 * same independent cost function).
 */
class SolverVsMilpTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverVsMilpTest, ScalableSolverNearMilpOptimum)
{
    const int trial = GetParam();
    const Workload w = makeWorkload(5 + trial % 3, 1500,
                                    100 + trial);
    SystemSpec sys = SystemSpec::paper(2, 1.0);
    Rng rng(500 + trial);
    // Random capacity pressure between 15% and 60% of the model.
    sys.hbm.capacityBytes = static_cast<std::uint64_t>(
        w.model.totalBytes() * rng.uniform(0.15, 0.6) / 2);
    sys.uvm.capacityBytes = w.model.totalBytes();

    const std::uint32_t batch = 8192;
    MilpShardOptions milp_opts;
    milp_opts.batchSize = batch;
    milp_opts.icdfSteps = 5;
    milp_opts.milp.relativeGap = 0.03;
    milp_opts.milp.timeLimitSec = 15;
    const MilpShardResult exact = milpShardPlan(w.model, w.profiles,
                                                sys, milp_opts);
    ASSERT_TRUE(exact.feasible);

    RecShardOptions rs_opts;
    rs_opts.batchSize = batch;
    rs_opts.icdfSteps = 5;
    const ShardingPlan fast = recShardPlan(w.model, w.profiles, sys,
                                           rs_opts);

    const double exact_cost = planBottleneckCost(w, sys, exact.plan,
                                                 batch);
    const double fast_cost = planBottleneckCost(w, sys, fast, batch);
    // The scalable solver must land close to (or beat) the MILP
    // incumbent under the same independent evaluation.
    EXPECT_LT(fast_cost, exact_cost * 1.25 + 1e-9)
        << "scalable solver strayed too far from the MILP optimum";
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverVsMilpTest,
                         ::testing::Range(0, 8));

} // namespace
