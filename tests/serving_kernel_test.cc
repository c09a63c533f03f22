/**
 * @file
 * Oracles for the virtual-time serving loops: the serving kernel
 * (routing/des.hh) that Router and LiveReplanServer both run on,
 * and phase 4's batched serveTraffic loop (serving/serving.hh).
 *
 *   - golden: a hedged, overloaded RoutingReport (tied and racing
 *     copies), a ReplanReport through a completed migration, and
 *     phase-4 ServingReports (a plan comparison, an admission-policy
 *     comparison and a three-tier near-data SSD node) are pinned
 *     field for field, doubles as hex floats. The values are a
 *     recorded oracle: a refactor of the serving loops must
 *     reproduce them bit for bit, and they are never regenerated to
 *     make a change pass;
 *   - differential: a LiveReplanServer with replanning disarmed is
 *     a Router with hedging off, field for field, across seeds and
 *     admission modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/replan/live.hh"
#include "recshard/routing/router.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/baselines.hh"
#include "recshard/sharding/recshard_solver.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

/** Row-identifiable catalog with a strong uniform skew, the shape
 *  the replan tests drift. */
ModelSpec
skewedModel(std::uint32_t features, std::uint64_t rows,
            std::uint64_t seed)
{
    ModelSpec model = makeTinyModel(features, rows, seed);
    for (auto &f : model.features) {
        f.dim = 32;
        f.cardinality = f.hashSize;
        f.alpha = 1.2;
    }
    return model;
}

/** A tiny model with every row `dim` wide. */
ModelSpec
wideModel(std::uint32_t features, std::uint64_t rows,
          std::uint64_t seed, std::uint32_t dim)
{
    ModelSpec model = makeTinyModel(features, rows, seed);
    for (auto &f : model.features)
        f.dim = dim;
    return model;
}

/** Two 2-GPU nodes, each able to pin ~20% of the model. */
SystemSpec
smallNode(const ModelSpec &model)
{
    SystemSpec system = SystemSpec::paper(2, 1.0);
    system.hbm.capacityBytes = static_cast<std::uint64_t>(
        0.2 * static_cast<double>(model.totalBytes()) /
        system.numGpus);
    system.uvm.capacityBytes = model.totalBytes();
    return system;
}

// ----------------------------------------------------- fingerprints

/** Appends "name value" lines; doubles print as hex floats so the
 *  comparison is exact and a mismatch names its field. */
class Fingerprint
{
  public:
    Fingerprint &
    add(const char *name, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a", v);
        text += std::string(name) + " " + buf + "\n";
        return *this;
    }

    Fingerprint &
    add(const char *name, std::uint64_t v)
    {
        text += std::string(name) + " " + std::to_string(v) + "\n";
        return *this;
    }

    Fingerprint &
    add(const char *name, bool v)
    {
        text += std::string(name) + (v ? " true\n" : " false\n");
        return *this;
    }

    Fingerprint &
    add(const char *name, const std::string &v)
    {
        text += std::string(name) + " " + v + "\n";
        return *this;
    }

    template <class T>
    Fingerprint &
    add(const char *name, const std::vector<T> &vs)
    {
        for (std::size_t i = 0; i < vs.size(); ++i)
            add((std::string(name) + "[" + std::to_string(i) + "]")
                    .c_str(),
                vs[i]);
        return *this;
    }

    std::string text;
};

std::string
fingerprint(const RoutingReport &r)
{
    Fingerprint f;
    f.add("name", r.name)
        .add("queries", r.queries)
        .add("durationSeconds", r.durationSeconds)
        .add("qps", r.qps)
        .add("servedQueries", r.servedQueries)
        .add("fullQueries", r.fullQueries)
        .add("degradedQueries", r.degradedQueries)
        .add("shedQueries", r.shedQueries)
        .add("shedRate", r.shedRate)
        .add("degradedRate", r.degradedRate)
        .add("goodQueries", r.goodQueries)
        .add("goodput", r.goodput)
        .add("offeredCandidates", r.offeredCandidates)
        .add("servedCandidates", r.servedCandidates)
        .add("candidateFraction", r.candidateFraction)
        .add("tierQueries", r.tierQueries)
        .add("tierCandidateFraction", r.tierCandidateFraction)
        .add("maxNodeOutstanding", r.maxNodeOutstanding)
        .add("meanLatency", r.meanLatency)
        .add("p50Latency", r.p50Latency)
        .add("p95Latency", r.p95Latency)
        .add("p99Latency", r.p99Latency)
        .add("maxLatency", r.maxLatency)
        .add("slaSeconds", r.slaSeconds)
        .add("slaViolationRate", r.slaViolationRate)
        .add("hedgedQueries", r.hedgedQueries)
        .add("hedgeRate", r.hedgeRate)
        .add("hedgeWins", r.hedgeWins)
        .add("canceledCopies", r.canceledCopies)
        .add("wastedSeconds", r.wastedSeconds)
        .add("wastedWorkFraction", r.wastedWorkFraction)
        .add("hbmAccesses", r.hbmAccesses)
        .add("uvmAccesses", r.uvmAccesses)
        .add("cacheHits", r.cacheHits)
        .add("uvmAccessFraction", r.uvmAccessFraction)
        .add("cacheHitRate", r.cacheHitRate)
        .add("nodeQueries", r.nodeQueries)
        .add("nodeBusySeconds", r.nodeBusySeconds)
        .add("clusterUtilization", r.clusterUtilization);
    return f.text;
}

std::string
fingerprint(const ReplanReport &r)
{
    Fingerprint f;
    f.add("name", r.name)
        .add("queries", r.queries)
        .add("servedQueries", r.servedQueries)
        .add("shedQueries", r.shedQueries)
        .add("goodQueries", r.goodQueries)
        .add("durationSeconds", r.durationSeconds)
        .add("qps", r.qps)
        .add("goodput", r.goodput)
        .add("meanLatency", r.meanLatency)
        .add("p50Latency", r.p50Latency)
        .add("p95Latency", r.p95Latency)
        .add("p99Latency", r.p99Latency)
        .add("maxLatency", r.maxLatency)
        .add("slaSeconds", r.slaSeconds)
        .add("slaViolationRate", r.slaViolationRate)
        .add("hbmAccesses", r.hbmAccesses)
        .add("uvmAccesses", r.uvmAccesses)
        .add("cacheHits", r.cacheHits)
        .add("uvmAccessFraction", r.uvmAccessFraction)
        .add("assessmentsRun", r.assessmentsRun)
        .add("replansTriggered", r.replansTriggered)
        .add("replansCompleted", r.replansCompleted)
        .add("migrationSteps", r.migrationSteps)
        .add("migratedRows", r.migratedRows)
        .add("migrationSeconds", r.migrationSeconds)
        .add("firstReplanTime", r.firstReplanTime)
        .add("shedDuringMigration", r.shedDuringMigration);
    for (const ReplanEpochStats &e : r.epochs) {
        const std::string p = "epoch" + std::to_string(e.index) + ".";
        f.add((p + "startTime").c_str(), e.startTime)
            .add((p + "endTime").c_str(), e.endTime)
            .add((p + "arrivals").c_str(), e.arrivals)
            .add((p + "served").c_str(), e.served)
            .add((p + "shed").c_str(), e.shed)
            .add((p + "good").c_str(), e.good)
            .add((p + "goodput").c_str(), e.goodput)
            .add((p + "p99").c_str(), e.p99)
            .add((p + "migrationActive").c_str(), e.migrationActive);
    }
    return f.text;
}

std::string
fingerprint(const ServingReport &r)
{
    Fingerprint f;
    f.add("strategy", r.strategy)
        .add("queries", r.queries)
        .add("batches", r.batches)
        .add("durationSeconds", r.durationSeconds)
        .add("qps", r.qps)
        .add("servedQueries", r.servedQueries)
        .add("shedQueries", r.shedQueries)
        .add("shedRate", r.shedRate)
        .add("goodQueries", r.goodQueries)
        .add("goodput", r.goodput)
        .add("offeredCandidates", r.offeredCandidates)
        .add("servedCandidates", r.servedCandidates)
        .add("candidateFraction", r.candidateFraction)
        .add("meanLatency", r.meanLatency)
        .add("p50Latency", r.p50Latency)
        .add("p95Latency", r.p95Latency)
        .add("p99Latency", r.p99Latency)
        .add("maxLatency", r.maxLatency)
        .add("meanQueueDepth", r.meanQueueDepth)
        .add("maxQueueDepth", r.maxQueueDepth)
        .add("meanBatchQueries", r.meanBatchQueries)
        .add("hbmAccesses", r.hbmAccesses)
        .add("uvmAccesses", r.uvmAccesses)
        .add("cacheHits", r.cacheHits)
        .add("cacheHitRate", r.cacheHitRate)
        .add("uvmAccessFraction", r.uvmAccessFraction)
        .add("slaSeconds", r.slaSeconds)
        .add("slaViolationRate", r.slaViolationRate)
        .add("serverUtilization", r.serverUtilization);
    return f.text;
}

// ---------------------------------------------------------- golden

/** Two nodes near saturation: least-outstanding routing, p95
 *  hedging, queue-threshold admission with degradation. */
struct GoldenRouting
{
    ModelSpec model;
    SyntheticDataset data;
    RoutingCluster cluster;
    RoutedTrace trace;
    RouterConfig rc;

    GoldenRouting()
        : model(skewedModel(6, 6000, 41)),
          data(model, 41 * 2654435761ULL + 1)
    {
        const std::vector<EmbProfile> profiles =
            profileDataset(data, 12000, 4096);
        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles,
                                      smallNode(model), cp);

        rc.policy = RoutingPolicy::LeastOutstanding;
        rc.hedge.enabled = true;
        rc.hedge.quantile = 0.95;
        rc.server.cacheRows = 200;
        rc.server.batchOverheadSeconds = 2e-6;
        rc.slaSeconds = 8e-6;
        rc.overload.admission.policy = "queue-threshold";
        rc.overload.admission.maxOutstanding = 3;
        rc.overload.degradation.enabled = true;
        rc.overload.degradation.shedPressure = 3.0;

        // A fixed offered rate, 0.9x of the saturation measured
        // once on this shape (958388 QPS) and frozen so the trace
        // never moves: queues build enough to hedge, degrade and
        // shed a little.
        LoadConfig load;
        load.qps = 860000.0;
        load.meanQuerySamples = 4.0;
        load.seed = 41 ^ 0x60157ULL;
        trace = materializeRoutedTrace(data, load, 3000);
    }
};

const GoldenRouting &
goldenRouting()
{
    static const GoldenRouting g;
    return g;
}

/** The LiveContext of replan_property_test.cc: a drifting trace
 *  over two nodes, tuned so at least one migration completes. */
struct GoldenReplan
{
    ModelSpec model;
    SyntheticDataset data;
    RoutingCluster cluster;
    RoutedTrace trace;
    ReplanConfig rc;

    GoldenReplan()
        : model(skewedModel(6, 8000, 17)),
          data(model, 17 * 2654435761ULL + 1)
    {
        const std::vector<EmbProfile> profiles =
            profileDataset(data, 20000, 4096);
        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles,
                                      smallNode(model), cp);

        rc.server.cacheRows = 0;
        rc.server.admission.cdfs = collectCdfs(profiles);
        rc.slaSeconds = 2e-3;
        rc.sketch.topK = 8192;
        rc.sketch.width = 32768;
        rc.drift.hitDropThreshold = 0.02;
        rc.drift.minQueries = 300;
        rc.epochQueries = 1000;
        rc.maxReplans = 4;
        rc.migration.rowsPerStep = 128;

        LoadConfig load;
        load.qps = 1000.0;
        load.meanQuerySamples = 6.0;
        load.seed = 17 ^ 0x60157ULL;
        RouterConfig probe;
        probe.policy = rc.policy;
        probe.server = rc.server;
        probe.slaSeconds = rc.slaSeconds;
        const double sat = estimateSaturationQps(
            model, cluster, probe,
            materializeRoutedTrace(data, load, 4000));
        load.qps = 0.6 * sat;

        DriftModel churn;
        churn.hotChurnPerMonth = 0.08;
        data.setDrift(churn);
        DriftTraceSchedule schedule;
        schedule.months = 10;
        trace = materializeDriftingRoutedTrace(data, load, 8000,
                                               schedule);
    }
};

// Recorded at the commit before the serving loops were merged into
// one kernel. Never regenerate these to make a change pass.

const char *const kGoldenTied = R"(name least-outstanding+hedge+queue-threshold+degrade
queries 3000
durationSeconds 0x1.c15f275237f63p-9
qps 0x1.a7b3e427d3155p+19
servedQueries 2975
fullQueries 1608
degradedQueries 1367
shedQueries 25
shedRate 0x1.1111111111111p-7
degradedRate 0x1.d29a485cd7b9p-2
goodQueries 1886
goodput 0x1.0c9b2c8fff0fbp+19
offeredCandidates 11874
servedCandidates 8766
candidateFraction 0x1.79fc1e874f09bp-1
tierQueries[0] 1608
tierQueries[1] 735
tierQueries[2] 555
tierQueries[3] 77
tierCandidateFraction[0] 0x1p+0
tierCandidateFraction[1] 0x1.1efcd4b010e7p-1
tierCandidateFraction[2] 0x1.5c52fa4d0cfe6p-2
tierCandidateFraction[3] 0x1.fb3e9cedc5599p-3
maxNodeOutstanding 11
meanLatency 0x1.d7e0a720cc79dp-18
p50Latency 0x1.9348d699516p-18
p95Latency 0x1.f2e22a16229bcp-17
p99Latency 0x1.2446b5a5e7e72p-16
maxLatency 0x1.36d8b5d89p-16
slaSeconds 0x1.0c6f7a0b5ed8dp-17
slaViolationRate 0x1.76d5ebdd3c524p-2
hedgedQueries 116
hedgeRate 0x1.3cc1e098ead66p-5
hedgeWins 0
canceledCopies 116
wastedSeconds 0x0p+0
wastedWorkFraction 0x0p+0
hbmAccesses 127239
uvmAccesses 35219
cacheHits 100301
uvmAccessFraction 0x1.128122f14399ap-3
cacheHitRate 0x1.7af0f2c301dfcp-1
nodeQueries[0] 1573
nodeQueries[1] 1402
nodeBusySeconds[0] 0x1.a9a4de3d0d3a7p-9
nodeBusySeconds[1] 0x1.8d06db4a90936p-9
clusterUtilization 0x1.d4a9a2d523fc6p-1
)";

const char *const kGoldenRacing = R"(name least-outstanding+hedge+queue-threshold+degrade
queries 3000
durationSeconds 0x1.c1612679896f3p-9
qps 0x1.a7202c06a63f7p+19
servedQueries 2971
fullQueries 1607
degradedQueries 1364
shedQueries 29
shedRate 0x1.3cc1e098ead66p-7
degradedRate 0x1.d194237fa89e6p-2
goodQueries 1903
goodput 0x1.0f05c94ecafdfp+19
offeredCandidates 11874
servedCandidates 8738
candidateFraction 0x1.78c70a0bfcb91p-1
tierQueries[0] 1607
tierQueries[1] 716
tierQueries[2] 576
tierQueries[3] 72
tierCandidateFraction[0] 0x1p+0
tierCandidateFraction[1] 0x1.1ea7cc5ea7cc6p-1
tierCandidateFraction[2] 0x1.5b9fe065d453dp-2
tierCandidateFraction[3] 0x1.01b2036406c81p-2
maxNodeOutstanding 11
meanLatency 0x1.d63bcfd05072fp-18
p50Latency 0x1.92e537beccep-18
p95Latency 0x1.ed8a0cb9f40cp-17
p99Latency 0x1.218b3e464a655p-16
maxLatency 0x1.363fb8b90c4p-16
slaSeconds 0x1.0c6f7a0b5ed8dp-17
slaViolationRate 0x1.701a31cdd9ea2p-2
hedgedQueries 117
hedgeRate 0x1.3f7ced916872bp-5
hedgeWins 0
canceledCopies 113
wastedSeconds 0x1.157ae194c1e58p-17
wastedWorkFraction 0x1.598cb6c97985fp-10
hbmAccesses 127072
uvmAccesses 34989
cacheHits 100230
uvmAccessFraction 0x1.1132c7f5cb771p-3
cacheHitRate 0x1.7b8411c9eb0acp-1
nodeQueries[0] 1573
nodeQueries[1] 1402
nodeBusySeconds[0] 0x1.a9ca790d815fdp-9
nodeBusySeconds[1] 0x1.8c7de89d2bfeep-9
clusterUtilization 0x1.d46ef5dd0662fp-1
)";

const char *const kGoldenReplan = R"(name live-replan
queries 8000
servedQueries 8000
shedQueries 0
goodQueries 8000
durationSeconds 0x1.2acab489ef222p-3
qps 0x1.ac6454cdeed59p+15
goodput 0x1.ac6454cdeed59p+15
meanLatency 0x1.03e93c601dcp-15
p50Latency 0x1.9a851530848cp-16
p95Latency 0x1.ed7e7668f2c32p-15
p99Latency 0x1.58cb4f7439403p-14
maxLatency 0x1.177ad84ad68p-13
slaSeconds 0x1.0624dd2f1a9fcp-9
slaViolationRate 0x0p+0
hbmAccesses 1787652
uvmAccesses 2266972
cacheHits 0
uvmAccessFraction 0x1.1e43617244ae9p-1
assessmentsRun 4
replansTriggered 4
replansCompleted 4
migrationSteps 92
migratedRows 18352
migrationSeconds 0x1.fa87c6078bbb1p-10
firstReplanTime 0x1.2a155856bb204p-5
shedDuringMigration 0
epoch0.startTime 0x1.69ecfba4397b7p-17
epoch0.endTime 0x1.26d6e3025cb6dp-6
epoch0.arrivals 1000
epoch0.served 997
epoch0.shed 0
epoch0.good 997
epoch0.goodput 0x1.b11782569e7b7p+15
epoch0.p99 0x1.5da66ae1eeeecp-14
epoch0.migrationActive false
epoch1.startTime 0x1.26d6e3025cb6dp-6
epoch1.endTime 0x1.2a155856bb204p-5
epoch1.arrivals 1000
epoch1.served 998
epoch1.shed 0
epoch1.good 998
epoch1.goodput 0x1.a7f0074e50103p+15
epoch1.p99 0x1.520038eabe2fap-14
epoch1.migrationActive false
epoch2.startTime 0x1.2a155856bb204p-5
epoch2.endTime 0x1.c2d65edf956e2p-5
epoch2.arrivals 1000
epoch2.served 1003
epoch2.shed 0
epoch2.good 1003
epoch2.goodput 0x1.a43b3040fcc37p+15
epoch2.p99 0x1.744a75db07555p-14
epoch2.migrationActive true
epoch3.startTime 0x1.c2d65edf956e2p-5
epoch3.endTime 0x1.2941ddc2829dfp-4
epoch3.arrivals 1000
epoch3.served 999
epoch3.shed 0
epoch3.good 999
epoch3.goodput 0x1.bcff5f8f593b7p+15
epoch3.p99 0x1.3cc9df16664ffp-14
epoch3.migrationActive true
epoch4.startTime 0x1.2941ddc2829dfp-4
epoch4.endTime 0x1.770e77069bd8ep-4
epoch4.arrivals 1000
epoch4.served 998
epoch4.shed 0
epoch4.good 998
epoch4.goodput 0x1.9a7e19c724681p+15
epoch4.p99 0x1.2889f62345285p-14
epoch4.migrationActive true
epoch5.startTime 0x1.770e77069bd8ep-4
epoch5.endTime 0x1.bc465a3197df6p-4
epoch5.arrivals 1000
epoch5.served 1002
epoch5.shed 0
epoch5.good 1002
epoch5.goodput 0x1.cf3ae364b99bp+15
epoch5.p99 0x1.c078b9a44a016p-14
epoch5.migrationActive true
epoch6.startTime 0x1.bc465a3197df6p-4
epoch6.endTime 0x1.055386ce30121p-3
epoch6.arrivals 1000
epoch6.served 1001
epoch6.shed 0
epoch6.good 1001
epoch6.goodput 0x1.98affe9a3ce15p+15
epoch6.p99 0x1.387757607bp-14
epoch6.migrationActive false
epoch7.startTime 0x1.055386ce30121p-3
epoch7.endTime 0x1.2ac4449e0dfc8p-3
epoch7.arrivals 1000
epoch7.served 1000
epoch7.shed 0
epoch7.good 1000
epoch7.goodput 0x1.ab588d289ee15p+15
epoch7.p99 0x1.29854204062f5p-14
epoch7.migrationActive false
epoch8.startTime 0x1.2ac4449e0dfc8p-3
epoch8.endTime 0x1.2ad05c3dddb3p-3
epoch8.arrivals 0
epoch8.served 2
epoch8.shed 0
epoch8.good 2
epoch8.goodput 0x1.52ba7b852bcb6p+16
epoch8.p99 0x1.a770d6a4e41c2p-15
epoch8.migrationActive false
)";

TEST(ServingKernelGolden, TiedHedgingUnderOverload)
{
    const GoldenRouting &g = goldenRouting();
    const RoutingReport r =
        Router(g.model, g.cluster, g.rc).route(g.trace);
    ASSERT_GT(r.hedgedQueries, 0u);
    ASSERT_GT(r.degradedQueries, 0u);
    ASSERT_GT(r.shedQueries, 0u);
    EXPECT_EQ(fingerprint(r), kGoldenTied);
}

TEST(ServingKernelGolden, RacingHedgingUnderOverload)
{
    const GoldenRouting &g = goldenRouting();
    RouterConfig rc = g.rc;
    rc.hedge.tiedRequests = false;
    const RoutingReport r =
        Router(g.model, g.cluster, rc).route(g.trace);
    ASSERT_GT(r.wastedSeconds, 0.0);
    EXPECT_EQ(fingerprint(r), kGoldenRacing);
}

TEST(ServingKernelGolden, ReplanThroughMigration)
{
    const GoldenReplan g;
    const ReplanReport r =
        LiveReplanServer(g.model, g.cluster, g.rc).serve(g.trace);
    ASSERT_GE(r.replansCompleted, 1u);
    EXPECT_EQ(fingerprint(r), kGoldenReplan);
}

// ------------------------------------------------- phase-4 golden

/** Phase 4 on four GPUs whose HBM holds a fifth of the model:
 *  batched queries queue behind every shard, and the plans and the
 *  cache admission policy all move the tail. */
struct GoldenPhase4
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    ShardingPlan greedy;
    ShardingPlan recshard;
    ServingConfig cfg;

    GoldenPhase4()
        : model(wideModel(8, 6000, 29, 128)),
          data(model, 29 * 2654435761ULL + 1),
          system(SystemSpec::paper(4, 1.0))
    {
        system.hbm.capacityBytes =
            model.totalBytes() / 5 / system.numGpus;
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 12000, 4096);
        greedy = greedyShard(BaselineCost::Size, model, profiles,
                             system);
        recshard = recShardPlan(model, profiles, system);

        cfg.load.qps = 40000.0;
        cfg.load.meanQuerySamples = 4.0;
        cfg.load.seed = 29 ^ 0x60157ULL;
        cfg.batching.maxBatchQueries = 16;
        cfg.batching.maxBatchSamples = 64;
        cfg.batching.maxWaitSeconds = 0.0005;
        cfg.server.batchOverheadSeconds = 1.5e-4;
        cfg.numQueries = 2000;
        cfg.slaSeconds = 0.0005;
    }

    std::vector<TierResolver>
    resolve(const ShardingPlan &plan) const
    {
        return ExecutionEngine::buildResolvers(model, plan,
                                               profiles);
    }
};

const GoldenPhase4 &
goldenPhase4()
{
    static const GoldenPhase4 g;
    return g;
}

// Recorded before phase 4 moved off its per-GPU server threads.
// Never regenerate these to make a change pass.

const char *const kGoldenPlanComparison = R"(strategy Size-Based
queries 2000
batches 132
durationSeconds 0x1.aade87ed895c1p-5
qps 0x1.2bdb8cdb3f5d9p+15
servedQueries 2000
shedQueries 0
shedRate 0x0p+0
goodQueries 1683
goodput 0x1.f8a90e15db8a4p+14
offeredCandidates 7997
servedCandidates 7997
candidateFraction 0x1p+0
meanLatency 0x1.7444e0bdb643ep-12
p50Latency 0x1.6b7f0225b6ccp-12
p95Latency 0x1.2fe9d62e32db6p-11
p99Latency 0x1.50041eb609f69p-11
maxLatency 0x1.5d7d52719a1p-11
meanQueueDepth 0x1.b40bb63e54248p+3
maxQueueDepth 28
meanBatchQueries 0x1.e4d9364d9364ep+3
hbmAccesses 174245
uvmAccesses 102016
cacheHits 258028
cacheHitRate 0x1.6eeda5a49e81ep-1
uvmAccessFraction 0x1.870a6e30a8a28p-3
slaSeconds 0x1.0624dd2f1a9fcp-11
slaViolationRate 0x1.449ba5e353f7dp-3
serverUtilization 0x1.99d891e558098p-2
strategy RecShard
queries 2000
batches 132
durationSeconds 0x1.aad37281baf94p-5
qps 0x1.2be3563a1fea8p+15
servedQueries 2000
shedQueries 0
shedRate 0x0p+0
goodQueries 1729
goodput 0x1.0340d218648d2p+15
offeredCandidates 7997
servedCandidates 7997
candidateFraction 0x1p+0
meanLatency 0x1.665dbd836c6d2p-12
p50Latency 0x1.5db51be10f6cp-12
p95Latency 0x1.2abc09ee81d2dp-11
p99Latency 0x1.49f0325607d13p-11
maxLatency 0x1.56141ba1cc3cp-11
meanQueueDepth 0x1.a3cdba2c66c0cp+3
maxQueueDepth 27
meanBatchQueries 0x1.e4d9364d9364ep+3
hbmAccesses 517777
uvmAccesses 12929
cacheHits 3583
cacheHitRate 0x1.bc67319cc6732p-3
uvmAccessFraction 0x1.8c77ecde6c573p-6
slaSeconds 0x1.0624dd2f1a9fcp-11
slaViolationRate 0x1.15810624dd2f2p-3
serverUtilization 0x1.8885e2d4ccc1ep-2
)";

const char *const kGoldenAdmissionComparison = R"(strategy Size-Based/tinylfu
queries 2000
batches 132
durationSeconds 0x1.aadc48e14db3fp-5
qps 0x1.2bdd20cfbf059p+15
servedQueries 2000
shedQueries 0
shedRate 0x0p+0
goodQueries 1695
goodput 0x1.fc44e46a5ea97p+14
offeredCandidates 7997
servedCandidates 7997
candidateFraction 0x1p+0
meanLatency 0x1.71267b90b3b88p-12
p50Latency 0x1.6840b356187p-12
p95Latency 0x1.2e643c9e627e7p-11
p99Latency 0x1.4e47e542d586dp-11
maxLatency 0x1.5c3dd9deae7p-11
meanQueueDepth 0x1.b066cfdb0ed76p+3
maxQueueDepth 28
meanBatchQueries 0x1.e4d9364d9364ep+3
hbmAccesses 174245
uvmAccesses 83453
cacheHits 276591
cacheHitRate 0x1.89536734286bap-1
uvmAccessFraction 0x1.3fe2e61c0e3efp-3
slaSeconds 0x1.0624dd2f1a9fcp-11
slaViolationRate 0x1.3851eb851eb85p-3
serverUtilization 0x1.963c882181431p-2
strategy Size-Based/cdf-gated
queries 2000
batches 132
durationSeconds 0x1.aadd1ddc5a51p-5
qps 0x1.2bdc8b325335cp+15
servedQueries 2000
shedQueries 0
shedRate 0x0p+0
goodQueries 1689
goodput 0x1.fa77507aa188ap+14
offeredCandidates 7997
servedCandidates 7997
candidateFraction 0x1p+0
meanLatency 0x1.733a86a9b1f91p-12
p50Latency 0x1.6a3517b63d3p-12
p95Latency 0x1.2f52bbaf03435p-11
p99Latency 0x1.4f74e3f5e0532p-11
maxLatency 0x1.5cd84314a053p-11
meanQueueDepth 0x1.b2d52b6dade94p+3
maxQueueDepth 28
meanBatchQueries 0x1.e4d9364d9364ep+3
hbmAccesses 174245
uvmAccesses 95008
cacheHits 265036
cacheHitRate 0x1.78e4dec2d389dp-1
uvmAccessFraction 0x1.6c2d9bc7a7a67p-3
slaSeconds 0x1.0624dd2f1a9fcp-11
slaViolationRate 0x1.3e76c8b439581p-3
serverUtilization 0x1.987c44c3b6b84p-2
)";

const char *const kGoldenNearDataSsd = R"(strategy RecShard
queries 2000
batches 287
durationSeconds 0x1.5adb4634a670cp-1
qps 0x1.71075579532dep+11
servedQueries 2000
shedQueries 0
shedRate 0x0p+0
goodQueries 2000
goodput 0x1.71075579532dep+11
offeredCandidates 8040
servedCandidates 8040
candidateFraction 0x1p+0
meanLatency 0x1.4ba0f2e3796d8p-10
p50Latency 0x1.4ebe68d89adp-10
p95Latency 0x1.18d4d86918b9ap-9
p99Latency 0x1.1acfd70bd52edp-9
maxLatency 0x1.1c6389af6dc4p-9
meanQueueDepth 0x1.de0c7e3a21b6cp+1
maxQueueDepth 14
meanBatchQueries 0x1.bdfe374d9a504p+2
hbmAccesses 802687
uvmAccesses 151000
cacheHits 0
cacheHitRate 0x0p+0
uvmAccessFraction 0x1.4444061bc2762p-3
slaSeconds 0x1.47ae147ae147bp-7
slaViolationRate 0x0p+0
serverUtilization 0x1.4e396fc2af523p-5
)";

TEST(ServingLoopGolden, PlanComparisonWithLruCache)
{
    const GoldenPhase4 &g = goldenPhase4();
    ServingConfig cfg = g.cfg;
    cfg.server.cacheRows = 400;
    cfg.server.admission.policy = "always";
    const std::vector<ServingReport> reports =
        serveTrafficComparison(g.data, {&g.greedy, &g.recshard},
                               {g.resolve(g.greedy),
                                g.resolve(g.recshard)},
                               g.system, cfg);
    ASSERT_EQ(reports.size(), 2u);
    ASSERT_GT(reports[0].cacheHits, 0u);
    ASSERT_GT(reports[0].meanBatchQueries, 1.0);
    EXPECT_EQ(fingerprint(reports[0]) + fingerprint(reports[1]),
              kGoldenPlanComparison);
}

TEST(ServingLoopGolden, AdmissionPolicyComparison)
{
    const GoldenPhase4 &g = goldenPhase4();
    ShardServerConfig tinylfu = g.cfg.server;
    tinylfu.cacheRows = 400;
    tinylfu.admission.policy = "tinylfu";
    ShardServerConfig gated = tinylfu;
    gated.admission.policy = "cdf-gated";
    gated.admission.cdfs = collectCdfs(g.profiles);
    const std::vector<ServingReport> reports =
        serveServerComparison(g.data, g.greedy, g.resolve(g.greedy),
                              g.system, g.cfg, {tinylfu, gated});
    ASSERT_EQ(reports.size(), 2u);
    ASSERT_GT(reports[0].cacheHits, 0u);
    ASSERT_GT(reports[1].cacheHits, 0u);
    EXPECT_EQ(fingerprint(reports[0]) + fingerprint(reports[1]),
              kGoldenAdmissionComparison);
}

/** The bench_tiering_capacity shape, reduced: a registry plan
 *  solved for an HBM/DRAM/SSD node whose HBM+DRAM holds a quarter
 *  of the model, served on the near-data SSD variant. */
TEST(ServingLoopGolden, ThreeTierNearDataSsd)
{
    const std::uint64_t seed = 11;
    const ModelSpec model = wideModel(6, 5000, seed, 128);
    const SyntheticDataset data(model, seed * 2654435761ULL + 1);

    const std::uint32_t gpus = 2;
    const double total = static_cast<double>(model.totalBytes());
    const auto hbm_pg =
        static_cast<std::uint64_t>(total / 64.0 / gpus);
    const auto hot_pg = static_cast<std::uint64_t>(total / 4.0 / gpus);
    const auto ssd_pg = static_cast<std::uint64_t>(total / gpus) +
        GB / 1000;
    const SystemSpec ssd_node =
        threeTierNode(gpus, hbm_pg, hot_pg - hbm_pg, ssd_pg, false);
    const SystemSpec nd_node =
        threeTierNode(gpus, hbm_pg, hot_pg - hbm_pg, ssd_pg, true);

    const std::vector<EmbProfile> profiles =
        profileDataset(data, 15000);
    const PlanResult solved =
        PlannerRegistry::create("recshard")
            ->plan(PlanRequest::make(model, profiles, ssd_node,
                                     16384));
    ASSERT_TRUE(solved.diag.feasible);

    ServingConfig cfg;
    cfg.load.qps = 3000.0;
    cfg.load.meanQuerySamples = 4.0;
    cfg.load.seed = seed ^ 0x71e5ULL;
    cfg.numQueries = 2000;
    cfg.slaSeconds = 0.010;
    const ServingReport r = serveTraffic(
        data, solved.plan,
        ExecutionEngine::buildResolvers(model, solved.plan, profiles),
        nd_node, cfg);
    ASSERT_GT(r.uvmAccesses, 0u);
    EXPECT_EQ(fingerprint(r), kGoldenNearDataSsd);
}

// ---------------------------------------------------- differential

struct DiffCase
{
    std::uint64_t seed;
    bool overloadControl;
};

class ServingKernelDifferential
    : public ::testing::TestWithParam<DiffCase>
{
};

/**
 * A static-plan LiveReplanServer and an unhedged Router run the same
 * serving loop on the same cluster and trace, so every field the two
 * reports share must agree exactly.
 */
TEST_P(ServingKernelDifferential, StaticLiveServerEqualsRouter)
{
    const DiffCase c = GetParam();
    const ModelSpec model = skewedModel(6, 5000, c.seed);
    SyntheticDataset data(model, c.seed * 2654435761ULL + 1);
    const std::vector<EmbProfile> profiles =
        profileDataset(data, 10000, 4096);
    ClusterPlanOptions cp;
    cp.numNodes = 2;
    const RoutingCluster cluster = buildRoutingCluster(
        model, profiles, smallNode(model), cp);

    RouterConfig router;
    router.policy = RoutingPolicy::LeastOutstanding;
    router.server.cacheRows = 128;
    if (c.overloadControl) {
        router.overload.admission.policy = "queue-threshold";
        router.overload.admission.maxOutstanding = 4;
        router.overload.degradation.enabled = true;
        router.overload.degradation.shedPressure = 3.0;
    }

    LoadConfig load;
    load.qps = 1000.0;
    load.meanQuerySamples = 4.0;
    load.seed = c.seed ^ 0x60157ULL;
    const double sat = estimateSaturationQps(
        model, cluster, router,
        materializeRoutedTrace(data, load, 1000));
    // SLA: eight mean service times, so both sides see violations.
    router.slaSeconds = 8.0 * 2.0 / sat;
    // Admit-all runs just under saturation; overload control is
    // exercised well past it, where it sheds and degrades.
    load.qps = (c.overloadControl ? 2.5 : 0.9) * sat;
    const RoutedTrace trace =
        materializeRoutedTrace(data, load, 2500);

    ReplanConfig live;
    live.policy = router.policy;
    live.overload = router.overload;
    live.server = router.server;
    live.slaSeconds = router.slaSeconds;
    live.localityLoadPenalty = router.localityLoadPenalty;
    live.epochQueries = 500;
    live.replanEnabled = false;

    const RoutingReport a = Router(model, cluster, router).route(trace);
    const ReplanReport b =
        LiveReplanServer(model, cluster, live).serve(trace);

    ASSERT_GT(a.slaViolationRate, 0.0);
    if (c.overloadControl) {
        ASSERT_GT(a.shedQueries, 0u);
        ASSERT_GT(a.degradedQueries, 0u);
    }
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.servedQueries, b.servedQueries);
    EXPECT_EQ(a.shedQueries, b.shedQueries);
    EXPECT_EQ(a.goodQueries, b.goodQueries);
    EXPECT_EQ(a.durationSeconds, b.durationSeconds);
    EXPECT_EQ(a.qps, b.qps);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.slaViolationRate, b.slaViolationRate);
    EXPECT_EQ(a.hbmAccesses, b.hbmAccesses);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.uvmAccessFraction, b.uvmAccessFraction);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndAdmission, ServingKernelDifferential,
    ::testing::Values(DiffCase{17, false}, DiffCase{17, true},
                      DiffCase{23, false}, DiffCase{23, true},
                      DiffCase{31, false}, DiffCase{31, true}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return "seed" + std::to_string(info.param.seed) +
            (info.param.overloadControl ? "_degrade" : "_admitAll");
    });

} // namespace
