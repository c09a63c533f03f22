/**
 * @file
 * Property tests for the live-replanning subsystem (replan/):
 * streaming sketches, drift detection, zero-downtime migration,
 * and the LiveReplanServer's closed loop.
 *
 * Everything runs in virtual time on seeded inputs, so — as with
 * the routing and overload tiers — most expectations are exact.
 * The one approximation in the subsystem, the count-min/top-k
 * sketch, gets an explicit error bound against the exact
 * EmbProfiler-style CDF built from the identical access stream.
 *
 * Invariants:
 *   - sketch CDF converges to the exact CDF: accessFraction at
 *     every probed pin budget within a bounded absolute error, and
 *     total mass preserved exactly;
 *   - sketch state stays bounded (candidates <= topK +
 *     pruneInterval) and decay() halves counters and totals;
 *   - migration conserves rows: per step, pins and unpins are
 *     disjoint, pins target only unpinned rows, unpins only pinned
 *     rows (every row servable from exactly one tier at every
 *     instant — no double-pin, no orphan); the final membership is
 *     byte-identical to the target split; accounting adds up;
 *   - same-seed live-replanning runs are byte-identical, field for
 *     field, epochs and all (virtual-time determinism through the
 *     replan/migration path);
 *   - served + shed == offered, in total and per epoch, even with
 *     migrations in flight;
 *   - churn model: zero churn is bit-identical to the historical
 *     stream at every month; nonzero churn leaves month 0
 *     untouched and rotates later months;
 *   - the routed-trace binary format round-trips identically.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/replan/live.hh"
#include "recshard/routing/router.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/tiering/topology.hh"

namespace {

using namespace recshard;

/** A drift-sensitive catalog: row-identifiable (no hash folding)
 *  with a strong uniform skew, as bench_replan_drift builds. */
ModelSpec
driftableModel(std::uint32_t features, std::uint64_t rows,
               std::uint64_t seed, double alpha = 1.2)
{
    ModelSpec model = makeTinyModel(features, rows, seed);
    for (auto &f : model.features) {
        f.dim = 32;
        f.cardinality = f.hashSize;
        f.alpha = alpha;
    }
    return model;
}

/** Exact per-table access counts over a materialized trace — the
 *  ground truth the sketches approximate. */
std::vector<std::map<std::uint64_t, std::uint64_t>>
exactCounts(const ModelSpec &model, const RoutedTrace &trace)
{
    std::vector<std::map<std::uint64_t, std::uint64_t>> counts(
        model.numFeatures());
    for (const RoutedQuery &rq : trace.queries)
        for (std::size_t j = 0; j < rq.lookups.size(); ++j)
            for (const std::uint64_t row : rq.lookups[j])
                ++counts[j][row];
    return counts;
}

TEST(ReplanSketch, CdfConvergesToExactProfile)
{
    const ModelSpec model = driftableModel(4, 4000, 11);
    SyntheticDataset data(model, 11 * 2654435761ULL + 1);
    LoadConfig load;
    load.qps = 50000.0;
    load.meanQuerySamples = 6.0;
    load.seed = 11;
    const RoutedTrace trace =
        materializeRoutedTrace(data, load, 4000);

    SketchConfig sc;
    sc.topK = 2048;
    sc.width = 8192;
    LiveProfiler profiler(model, sc);
    for (const RoutedQuery &rq : trace.queries)
        profiler.observeQuery(rq, rq.query.samples);

    const auto exact = exactCounts(model, trace);
    const auto profiles = profiler.exportProfiles();
    ASSERT_EQ(profiles.size(), model.numFeatures());

    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs(
            exact[j].begin(), exact[j].end());
        const FrequencyCdf truth(model.features[j].hashSize,
                                 std::move(pairs));
        const FrequencyCdf &est = profiles[j].cdf;

        // No mass invented or lost: the sketch observed exactly
        // the trace's lookups.
        EXPECT_EQ(est.totalAccesses(), truth.totalAccesses())
            << "table " << j;

        // Bounded CDF error at every pin budget a planner would
        // probe. Count-min with conservative update plus an exact
        // top-k frontier keeps the head tight; the tail is
        // approximated, so the bound is loose but real.
        for (const std::uint64_t k : {16ull, 64ull, 256ull,
                                      1024ull, 2048ull}) {
            EXPECT_NEAR(est.accessFraction(k),
                        truth.accessFraction(k), 0.05)
                << "table " << j << " at k=" << k;
        }
    }
}

TEST(ReplanSketch, StateBoundedAndDecayHalves)
{
    SketchConfig sc;
    sc.topK = 64;
    sc.pruneInterval = 128;
    sc.width = 512;
    RowFrequencySketch sketch(4096, sc);

    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        sketch.observe((state >> 33) % 4096);
        ASSERT_LE(sketch.candidateCount(),
                  static_cast<std::size_t>(sc.topK) +
                      sc.pruneInterval);
    }
    EXPECT_EQ(sketch.totalObserved(), 20000u);

    const std::uint64_t before = sketch.estimate(123);
    const std::uint64_t total_before = sketch.totalObserved();
    sketch.decay();
    EXPECT_EQ(sketch.estimate(123), before / 2);
    EXPECT_EQ(sketch.totalObserved(), total_before / 2);
}

TEST(ReplanMigration, ConservesRowsAndReachesTarget)
{
    const ModelSpec model = driftableModel(4, 2000, 13);
    SyntheticDataset data(model, 13 * 2654435761ULL + 1);
    const auto profiles = profileDataset(data, 8000, 2048);

    // Incumbent membership: top quarter of each table pinned.
    std::vector<TierResolver> live;
    std::vector<std::uint64_t> old_pins;
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const std::uint64_t rows = model.features[j].hashSize;
        old_pins.push_back(rows / 4);
        live.push_back(TierResolver::split(profiles[j].cdf,
                                           old_pins[j], rows));
    }

    // Target: drifted ranking, different pin counts.
    data.setMonth(6);
    DriftModel churn;
    churn.hotChurnPerMonth = 0.08;
    data.setDrift(churn);
    const auto fresh = profileDataset(data, 8000, 2048);
    ShardingPlan target;
    target.tables.resize(model.numFeatures());
    std::vector<FrequencyCdf> target_cdfs(model.numFeatures());
    std::vector<std::uint32_t> tables;
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        target.tables[j].hbmRows = model.features[j].hashSize / 3;
        target_cdfs[j] = fresh[j].cdf;
        tables.push_back(j);
    }

    MigrationConfig mc;
    mc.rowsPerStep = 64;
    PlanMigration mig(model, target, target_cdfs, tables, live,
                      mc);
    ASSERT_GT(mig.totalSteps(), 0u);

    std::uint64_t pins_seen = 0, unpins_seen = 0, bytes_seen = 0;
    while (!mig.done()) {
        const MigrationStep &step = mig.front();
        ASSERT_LE(step.pins.size(), mc.rowsPerStep);
        ASSERT_LE(step.unpins.size(), mc.rowsPerStep);

        // Disjoint, and each side flips rows only in the legal
        // direction: no row is ever pinned twice or released
        // twice, so membership stays total at every instant.
        std::set<std::uint64_t> pin_set(step.pins.begin(),
                                        step.pins.end());
        ASSERT_EQ(pin_set.size(), step.pins.size());
        for (const std::uint64_t r : step.unpins) {
            ASSERT_FALSE(pin_set.count(r));
            ASSERT_TRUE(live[step.table].inHbm(r));
        }
        for (const std::uint64_t r : step.pins)
            ASSERT_FALSE(live[step.table].inHbm(r));

        const std::uint64_t before =
            live[step.table].pinnedRows(
                model.features[step.table].hashSize);
        mig.commitFront();
        const std::uint64_t after =
            live[step.table].pinnedRows(
                model.features[step.table].hashSize);
        ASSERT_EQ(after, before + step.pins.size() -
                             step.unpins.size());
        // Pinned count never exceeds the larger of the two plans
        // plus one step's slack (HBM capacity holds throughout).
        ASSERT_LE(after,
                  std::max(old_pins[step.table],
                           target.tables[step.table].hbmRows) +
                      mc.rowsPerStep);

        pins_seen += step.pins.size();
        unpins_seen += step.unpins.size();
        bytes_seen += step.copyBytes;
    }

    EXPECT_EQ(pins_seen, mig.rowsPinned());
    EXPECT_EQ(unpins_seen, mig.rowsUnpinned());
    EXPECT_EQ(bytes_seen, mig.copyBytesTotal());
    EXPECT_EQ(mig.stepsCommitted(), mig.totalSteps());

    // The landed membership is exactly the target split — the same
    // decision TierResolver::split would make offline.
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const std::uint64_t rows = model.features[j].hashSize;
        const TierResolver expect = TierResolver::split(
            target_cdfs[j], target.tables[j].hbmRows, rows);
        for (std::uint64_t r = 0; r < rows; ++r)
            ASSERT_EQ(live[j].inHbm(r), expect.inHbm(r))
                << "table " << j << " row " << r;
        EXPECT_EQ(live[j].pinnedRows(rows),
                  expect.pinnedRows(rows));
    }
}

/** Shared live-replanning context: a drifting trace over a small
 *  cluster, tuned so the drift trigger actually fires. */
struct LiveContext
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    RoutedTrace trace;
    ReplanConfig rc;

    LiveContext()
        : model(driftableModel(6, 8000, 17)),
          data(model, 17 * 2654435761ULL + 1),
          system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = static_cast<std::uint64_t>(
            0.2 * static_cast<double>(model.totalBytes()) /
            system.numGpus);
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 20000, 4096);

        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles, system, cp);

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

        // Sub-saturation load with idle gaps, measured not guessed.
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

LiveContext &
liveContext()
{
    static LiveContext ctx;
    return ctx;
}

void
expectSameReport(const ReplanReport &a, const ReplanReport &b)
{
    EXPECT_EQ(a.name, b.name);
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
    EXPECT_EQ(a.assessmentsRun, b.assessmentsRun);
    EXPECT_EQ(a.replansTriggered, b.replansTriggered);
    EXPECT_EQ(a.replansCompleted, b.replansCompleted);
    EXPECT_EQ(a.migrationSteps, b.migrationSteps);
    EXPECT_EQ(a.migratedRows, b.migratedRows);
    EXPECT_EQ(a.migrationSeconds, b.migrationSeconds);
    EXPECT_EQ(a.firstReplanTime, b.firstReplanTime);
    EXPECT_EQ(a.shedDuringMigration, b.shedDuringMigration);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].index, b.epochs[i].index);
        EXPECT_EQ(a.epochs[i].startTime, b.epochs[i].startTime);
        EXPECT_EQ(a.epochs[i].endTime, b.epochs[i].endTime);
        EXPECT_EQ(a.epochs[i].arrivals, b.epochs[i].arrivals);
        EXPECT_EQ(a.epochs[i].served, b.epochs[i].served);
        EXPECT_EQ(a.epochs[i].shed, b.epochs[i].shed);
        EXPECT_EQ(a.epochs[i].good, b.epochs[i].good);
        EXPECT_EQ(a.epochs[i].goodput, b.epochs[i].goodput);
        EXPECT_EQ(a.epochs[i].p99, b.epochs[i].p99);
        EXPECT_EQ(a.epochs[i].migrationActive,
                  b.epochs[i].migrationActive);
    }
}

TEST(LiveReplan, DeterministicThroughMigration)
{
    LiveContext &ctx = liveContext();
    const LiveReplanServer server(ctx.model, ctx.cluster, ctx.rc);
    const ReplanReport a = server.serve(ctx.trace);
    const ReplanReport b = server.serve(ctx.trace);

    // The determinism claim must cover the migration path, not
    // just the serve loop: the context is tuned to trigger.
    ASSERT_GE(a.replansTriggered, 1u);
    ASSERT_GE(a.migrationSteps, 1u);
    expectSameReport(a, b);
}

TEST(LiveReplan, ConservationInTotalAndPerEpoch)
{
    LiveContext &ctx = liveContext();
    const ReplanReport r =
        LiveReplanServer(ctx.model, ctx.cluster, ctx.rc)
            .serve(ctx.trace);

    EXPECT_EQ(r.servedQueries + r.shedQueries, r.queries);
    std::uint64_t arrivals = 0, served = 0, shed = 0;
    for (const ReplanEpochStats &e : r.epochs) {
        arrivals += e.arrivals;
        served += e.served;
        shed += e.shed;
        EXPECT_GE(e.endTime, e.startTime);
    }
    EXPECT_EQ(arrivals, r.queries);
    EXPECT_EQ(served, r.servedQueries);
    EXPECT_EQ(shed, r.shedQueries);

    // Migration rode idle gaps: nothing was shed because of it.
    EXPECT_EQ(r.shedDuringMigration, 0u);
}

TEST(LiveReplan, StaticBaselineNeverMigrates)
{
    LiveContext &ctx = liveContext();
    ReplanConfig rc = ctx.rc;
    rc.replanEnabled = false;
    const ReplanReport r =
        LiveReplanServer(ctx.model, ctx.cluster, rc)
            .serve(ctx.trace);
    EXPECT_EQ(r.name, "static-plan");
    EXPECT_EQ(r.assessmentsRun, 0u);
    EXPECT_EQ(r.replansTriggered, 0u);
    EXPECT_EQ(r.migrationSteps, 0u);
    EXPECT_EQ(r.servedQueries + r.shedQueries, r.queries);
}

/** The LiveContext shape on HBM / DRAM / SSD nodes whose DRAM holds
 *  only part of the cold rows, so the SSD tier is in use. */
ReplanReport
serveThreeTier(std::uint64_t seed)
{
    const ModelSpec model = driftableModel(6, 8000, seed);
    SyntheticDataset data(model, seed * 2654435761ULL + 1);
    const double total = static_cast<double>(model.totalBytes());
    const SystemSpec node = threeTierNode(
        2, static_cast<std::uint64_t>(0.2 * total / 2),
        static_cast<std::uint64_t>(0.3 * total / 2),
        model.totalBytes());
    const auto profiles = profileDataset(data, 20000, 4096);
    ClusterPlanOptions cp;
    cp.numNodes = 2;
    const RoutingCluster cluster =
        buildRoutingCluster(model, profiles, node, cp);

    ReplanConfig rc;
    rc.server.cacheRows = 0;
    rc.slaSeconds = 2e-3;
    rc.sketch.topK = 8192;
    rc.sketch.width = 32768;
    rc.drift.hitDropThreshold = 0.02;
    rc.drift.minQueries = 300;
    rc.epochQueries = 1000;
    rc.migration.rowsPerStep = 128;

    LoadConfig load;
    load.meanQuerySamples = 6.0;
    load.seed = seed ^ 0x60157ULL;
    RouterConfig probe;
    probe.policy = rc.policy;
    probe.server = rc.server;
    probe.slaSeconds = rc.slaSeconds;
    load.qps = 0.6 * estimateSaturationQps(
                         model, cluster, probe,
                         materializeRoutedTrace(data, load, 4000));

    DriftModel churn;
    churn.hotChurnPerMonth = 0.08;
    data.setDrift(churn);
    DriftTraceSchedule schedule;
    schedule.months = 10;
    const RoutedTrace trace =
        materializeDriftingRoutedTrace(data, load, 8000, schedule);
    return LiveReplanServer(model, cluster, rc).serve(trace);
}

TEST(LiveReplan, ThreeTierNodesMigrate)
{
    // A lifted target used to keep the incumbent's per-tier rows,
    // so the first replan on a tiered node died in plan validation.
    // Every seed must now serve to the end; where unpinned rows
    // would overflow DRAM the replan keeps the incumbent instead.
    std::uint64_t completed = 0;
    for (const std::uint64_t seed : {17u, 23u, 31u}) {
        const ReplanReport r = serveThreeTier(seed);
        EXPECT_EQ(r.servedQueries + r.shedQueries, r.queries)
            << "seed " << seed;
        EXPECT_EQ(r.shedDuringMigration, 0u) << "seed " << seed;
        completed += r.replansCompleted;
    }
    EXPECT_GE(completed, 1u);
}

TEST(ReplanTrace, ChurnRotatesOnlyLaterMonths)
{
    const ModelSpec model = driftableModel(3, 2000, 19);

    DriftModel none; // hotChurnPerMonth == 0
    DriftModel churn;
    churn.hotChurnPerMonth = 0.05;

    EXPECT_EQ(none.valueShift(7, 2000), 0u);
    EXPECT_EQ(churn.valueShift(0, 2000), 0u);
    EXPECT_EQ(churn.valueShift(4, 2000),
              static_cast<std::uint64_t>(0.05 * 4 * 2000) % 2000);

    SyntheticDataset a(model, 99);
    SyntheticDataset b(model, 99);
    b.setDrift(churn);

    // Month 0: churn invisible, streams bit-identical.
    FeatureBatch fa = a.featureBatch(0, 64, 5);
    FeatureBatch fb = b.featureBatch(0, 64, 5);
    EXPECT_EQ(fa.indices, fb.indices);
    EXPECT_EQ(fa.offsets, fb.offsets);

    // Later months: identical pooling geometry, rotated rows.
    a.setMonth(6);
    b.setMonth(6);
    fa = a.featureBatch(0, 64, 5);
    fb = b.featureBatch(0, 64, 5);
    EXPECT_EQ(fa.offsets, fb.offsets);
    EXPECT_NE(fa.indices, fb.indices);
}

TEST(ReplanTrace, BinaryFormatRoundTrips)
{
    const ModelSpec model = driftableModel(3, 1000, 23);
    SyntheticDataset data(model, 23);
    DriftModel churn;
    churn.hotChurnPerMonth = 0.05;
    data.setDrift(churn);
    LoadConfig load;
    load.qps = 20000.0;
    load.meanQuerySamples = 5.0;
    load.seed = 23;
    DriftTraceSchedule schedule;
    schedule.months = 4;
    const RoutedTrace out = materializeDriftingRoutedTrace(
        data, load, 500, schedule);

    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    writeRoutedTrace(buf, out);
    const RoutedTrace in = readRoutedTrace(buf);

    ASSERT_EQ(in.queries.size(), out.queries.size());
    for (std::size_t i = 0; i < out.queries.size(); ++i) {
        const RoutedQuery &x = out.queries[i];
        const RoutedQuery &y = in.queries[i];
        EXPECT_EQ(y.query.id, x.query.id);
        EXPECT_EQ(y.query.arrival, x.query.arrival);
        EXPECT_EQ(y.query.samples, x.query.samples);
        EXPECT_EQ(y.query.batchIndex, x.query.batchIndex);
        EXPECT_EQ(y.totalLookups, x.totalLookups);
        ASSERT_EQ(y.lookups.size(), x.lookups.size());
        for (std::size_t j = 0; j < x.lookups.size(); ++j) {
            EXPECT_EQ(y.lookups[j], x.lookups[j]);
            EXPECT_EQ(y.sampleOffsets[j], x.sampleOffsets[j]);
        }
    }

    // Garbage in front fails loudly, not quietly.
    std::stringstream bad(std::ios::in | std::ios::out |
                          std::ios::binary);
    bad << "NOTATRACE";
    EXPECT_DEATH(readRoutedTrace(bad), "bad magic");
}

/** A valid two-query, two-feature trace built by hand. */
RoutedTrace
handBuiltTrace()
{
    RoutedTrace trace;
    trace.queries.resize(2);
    for (std::uint64_t i = 0; i < 2; ++i) {
        RoutedQuery &rq = trace.queries[i];
        rq.query.id = i;
        rq.query.arrival = 0.001 * static_cast<double>(i + 1);
        rq.query.samples = 2;
        rq.query.batchIndex = i;
        rq.lookups = {{1, 2, 3}, {4}};
        rq.sampleOffsets = {{0, 1, 3}, {0, 0, 1}};
        rq.totalLookups = 4;
    }
    return trace;
}

/** Write a trace, even one the builders never produce, and read it
 *  back. */
RoutedTrace
rereadTrace(const RoutedTrace &trace)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    writeRoutedTrace(buf, trace);
    return readRoutedTrace(buf);
}

TEST(ReplanTrace, ReadAcceptsTheHandBuiltTrace)
{
    const RoutedTrace in = rereadTrace(handBuiltTrace());
    ASSERT_EQ(in.queries.size(), 2u);
    EXPECT_EQ(in.queries[1].sampleOffsets[1],
              (std::vector<std::uint32_t>{0, 0, 1}));
}

TEST(ReplanTrace, ReadRejectsIdsThatAreNotDense)
{
    RoutedTrace trace = handBuiltTrace();
    trace.queries[1].query.id = 0;
    EXPECT_DEATH(rereadTrace(trace), "query 1 carries id 0");
}

TEST(ReplanTrace, ReadRejectsOffsetsThatDoNotStartAtZero)
{
    RoutedTrace trace = handBuiltTrace();
    trace.queries[1].sampleOffsets[1] = {1, 1, 1};
    EXPECT_DEATH(rereadTrace(trace),
                 "query 1 feature 1 has sample offsets that do not "
                 "start at 0");
}

TEST(ReplanTrace, ReadRejectsDecreasingOffsets)
{
    RoutedTrace trace = handBuiltTrace();
    trace.queries[1].sampleOffsets[0] = {0, 4, 3};
    EXPECT_DEATH(rereadTrace(trace),
                 "query 1 feature 0 has sample offsets .* decrease");
}

TEST(ReplanTrace, ReadRejectsAWrongLookupTotal)
{
    RoutedTrace trace = handBuiltTrace();
    trace.queries[1].totalLookups = 5;
    EXPECT_DEATH(rereadTrace(trace),
                 "query 1 claims 5 lookups but its features hold 4");
}

TEST(ReplanTrace, ReadRejectsDecreasingArrivals)
{
    RoutedTrace trace = handBuiltTrace();
    trace.queries[1].query.arrival = 0.0005;
    EXPECT_DEATH(rereadTrace(trace),
                 "query 1 arrives at .*before query 0");
}

} // namespace
