/**
 * @file
 * The benchmark's own tests: reducers, arrival rescaling, the
 * sla_qps search, and one held-out seed through every correctness
 * check of every workload.
 *
 *   cmake --build .bench_build --target perfbench_test
 *   .bench_build/perfbench_test
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>

#include "harness.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/routing/cluster.hh"
#include "recshard/routing/router.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace recshard;

namespace {

constexpr std::uint64_t kHeldOutSeed = 4242;

} // namespace

TEST(Reducers, MedianOfOddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Reducers, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    const Quartiles q =
        quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    const Quartiles two = quartiles({2.0, 1.0});
    EXPECT_DOUBLE_EQ(two.q1, 0.75);
    EXPECT_DOUBLE_EQ(two.q2, 1.5);
    EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(Reducers, PercentileCarriesServedCountAndTail)
{
    std::vector<double> xs;
    for (int i = 1000; i >= 1; --i)
        xs.push_back(i);
    const Percentile p99 = percentile(xs, 0.99);
    EXPECT_EQ(p99.value, 990.0);
    EXPECT_EQ(p99.count, 1000u);
    EXPECT_EQ(p99.beyond, 10u);
    const Percentile p50 = percentile({5.0, 1.0, 3.0}, 0.5);
    EXPECT_EQ(p50.value, 3.0);
    EXPECT_EQ(p50.count, 3u);
    EXPECT_EQ(p50.beyond, 1u);
    EXPECT_EQ(percentile({}, 0.99).count, 0u);
}

namespace {

struct SmallCluster
{
    ModelSpec model = makeTinyModel(8, 2000, 3);
    SyntheticDataset data{model, 11};
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    RoutedTrace trace;

    SmallCluster()
    {
        for (auto &f : model.features)
            f.dim = 64;
        data = SyntheticDataset(model, 11);
        profiles = profileDataset(data, 4000);
        SystemSpec sys = SystemSpec::paper(2, 1.0);
        sys.hbm.capacityBytes = model.totalBytes() / 10;
        sys.uvm.capacityBytes = model.totalBytes();
        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles, sys, cp);
        LoadConfig load;
        load.qps = 1000.0;
        load.seed = 5;
        trace = materializeRoutedTrace(data, load, 1500);
    }
};

} // namespace

TEST(Rates, RescalingKeepsLookupsAndScalesGaps)
{
    SmallCluster c;
    const std::vector<double> base = arrivalStamps(c.trace);
    const RoutedTrace before = c.trace;
    const double scale = 1.0 / 0.6;
    rescaleArrivals(c.trace, base, scale);
    for (std::size_t i = 0; i < c.trace.queries.size(); ++i) {
        const RoutedQuery &q = c.trace.queries[i];
        EXPECT_EQ(q.lookups, before.queries[i].lookups);
        EXPECT_EQ(q.sampleOffsets, before.queries[i].sampleOffsets);
        EXPECT_EQ(q.query.samples, before.queries[i].query.samples);
        EXPECT_EQ(q.query.arrival, base[i] * scale);
        if (i > 0) {
            const double gap = q.query.arrival -
                c.trace.queries[i - 1].query.arrival;
            const double want = (base[i] - base[i - 1]) * scale;
            EXPECT_NEAR(gap, want, 1e-9 * std::abs(want) + 1e-15);
        }
    }
    rescaleArrivals(c.trace, base, 1.0);
    EXPECT_EQ(arrivalStamps(c.trace), base);
}

TEST(SlaSearch, BisectsAMonotonePredicate)
{
    const auto meets = [](double r) { return r <= 1234.5; };
    const double found = slaRateSearch(meets, 100.0, 5000.0, 20);
    EXPECT_LE(found, 1234.5);
    EXPECT_GT(found, 1234.5 - 4900.0 / (1 << 20) - 1e-9);
    EXPECT_EQ(found, slaRateSearch(meets, 100.0, 5000.0, 20));
    EXPECT_EQ(slaRateSearch([](double) { return false; }, 1.0, 2.0, 5),
              1.0);
}

TEST(SlaSearch, RouterPredicateIsMonotoneAndDeterministic)
{
    SmallCluster c;
    const std::vector<double> base = arrivalStamps(c.trace);
    const double span_at_1000 = base.back() - base.front();
    const auto search = [&](double sla) {
        RouterConfig cfg;
        cfg.policy = RoutingPolicy::LeastOutstanding;
        cfg.slaSeconds = sla;
        cfg.overload.admission.policy = "queue-threshold";
        cfg.overload.admission.maxOutstanding = 16;
        const Router router(c.model, c.cluster, cfg);
        std::vector<bool> grid;
        for (double qps = 2000.0; qps <= 400000.0; qps *= 1.5) {
            rescaleArrivals(c.trace, base, 1000.0 / qps);
            grid.push_back(meetsSla(router.route(c.trace),
                                    span_at_1000 * 1000.0 / qps));
        }
        // Feasible below some rate, infeasible above it.
        for (std::size_t i = 1; i < grid.size(); ++i)
            EXPECT_FALSE(grid[i] && !grid[i - 1]) << "at step " << i;
        EXPECT_TRUE(grid.front());
        EXPECT_FALSE(grid.back());
        return slaRateSearch(
            [&](double qps) {
                rescaleArrivals(c.trace, base, 1000.0 / qps);
                return meetsSla(router.route(c.trace),
                                span_at_1000 * 1000.0 / qps);
            },
            2000.0, 400000.0, 8);
    };
    const double tight = search(200e-6);
    EXPECT_EQ(tight, search(200e-6));
    EXPECT_GE(search(2e-3), tight);
    EXPECT_GT(tight, 2000.0);
}

TEST(Checks, ConservationPredicate)
{
    RoutingReport r;
    r.queries = 10;
    r.fullQueries = 6;
    r.degradedQueries = 3;
    r.shedQueries = 1;
    r.servedQueries = 9;
    EXPECT_TRUE(conserves(r));
    r.shedQueries = 2;
    EXPECT_FALSE(conserves(r));
}

TEST(PerLayer, NamesAndUnitsMatchBenchmarkJson)
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    const std::size_t start = json.find("\"per_layer\"");
    ASSERT_NE(start, std::string::npos);
    const std::regex entry(
        "\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
    std::vector<std::pair<std::string, std::string>> published;
    for (std::sregex_iterator it(json.begin() + static_cast<long>(start),
                                 json.end(), entry),
         end;
         it != end; ++it)
        published.emplace_back((*it)[1], (*it)[2]);
    EXPECT_EQ(published, perLayerMetricNames());
}

namespace {

void
expectAllChecksPass(const RunReport &r)
{
    EXPECT_GT(r.checks.attempted(), 0u);
    EXPECT_EQ(r.checks.failed(), 0u);
}

RunOptions
heldOut(const std::string &workload, bool trace)
{
    RunOptions o;
    o.workload = workload;
    o.seed = kHeldOutSeed;
    o.seconds = 1.0;
    o.trace = trace;
    o.outDir = testing::TempDir() + "perfbench_spans";
    return o;
}

} // namespace

TEST(HeldOutSeed, TrainRmPassesEveryCheck)
{
    const RunReport r = runTrainRm(heldOut("train-rm", false));
    expectAllChecksPass(r);
    EXPECT_GT(r.metrics.at("plan_s").value, 0.0);
}

TEST(HeldOutSeed, Serve3TierPassesEveryCheck)
{
    const RunReport r = runServe3Tier(heldOut("serve-3tier", false));
    expectAllChecksPass(r);
    EXPECT_GT(r.metrics.at("lookups_per_s").value, 0.0);
}

TEST(HeldOutSeed, TracedServe3TierPrintsEveryLayer)
{
    const RunReport r = runServe3Tier(heldOut("serve-3tier", true));
    expectAllChecksPass(r);
    ASSERT_EQ(r.metrics.size(), perLayerMetricNames().size());
    for (const auto &[name, unit] : perLayerMetricNames())
        EXPECT_EQ(r.metrics.at(name).unit, unit) << name;
    for (const char *name :
         {"replan.observe_ns", "engine.replay_s", "routing.route_s",
          "replan.serve_s", "replan.replans_completed",
          "replan.migrated_rows"})
        EXPECT_GT(r.metrics.at(name).value, 0.0) << name;
}
