/**
 * @file
 * Property tests for the overload-control subsystem: randomized-
 * seed invariant sweeps over admission policies, degraded-mode
 * serving, and their interaction with PR 2's hedging paths under
 * overload (which this tier retro-covers — the original routing
 * tests never pushed the Router past saturation).
 *
 * Each invariant is checked across >= 10 seeds, every seed a fresh
 * model, dataset, cluster, and trace. The seed list is fixed (a
 * SplitMix64 chain), so a failure reproduces exactly; within one
 * seed everything runs in virtual time, so there is no tolerance
 * anywhere — the determinism test demands byte-identical reports.
 *
 * Invariants:
 *   - conservation: fullQueries + degradedQueries + shedQueries ==
 *     offered queries, for every (policy, mode) combination;
 *   - pure degrade mode (no backstop) never sheds;
 *   - goodput *fraction* (SLA-compliant served / offered) is
 *     monotone non-increasing in the arrival rate for a fixed
 *     policy;
 *   - virtual-time determinism: the same (cluster, trace, config)
 *     triple yields identical RoutingReports, field for field;
 *   - hedging under overload conserves work: dispatches == served
 *     + hedges - cancelations, and tied requests still waste zero
 *     seconds when admission is shedding around them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/overload/degradation.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/router.hh"

namespace {

using namespace recshard;

/** Fixed seed list: >= 10 seeds per invariant, reproducible. */
std::vector<std::uint64_t>
seedList()
{
    std::vector<std::uint64_t> seeds;
    std::uint64_t state = 0x5EEDF00DULL;
    for (int i = 0; i < 12; ++i)
        seeds.push_back(splitMix64(state) % 100000);
    return seeds;
}

/** One seed's cluster + measured saturation, built once. */
struct Context
{
    ModelSpec model;
    SyntheticDataset data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    double saturationQps = 0.0;

    explicit Context(std::uint64_t seed)
        : model(sized(makeTinyModel(8, 8000, seed))),
          data(model, seed * 2654435761ULL + 1),
          system(SystemSpec::paper(2, 1.0))
    {
        system.hbm.capacityBytes = static_cast<std::uint64_t>(
            0.25 * static_cast<double>(model.totalBytes()) /
            system.numGpus);
        system.uvm.capacityBytes = model.totalBytes();
        profiles = profileDataset(data, 10000, 2048);

        ClusterPlanOptions cp;
        cp.numNodes = 2;
        cluster = buildRoutingCluster(model, profiles, system, cp);

        saturationQps = estimateSaturationQps(
            model, cluster, baseConfig(), trace(1.0, 600));
    }

    static ModelSpec
    sized(ModelSpec spec)
    {
        for (auto &f : spec.features)
            f.dim = 64;
        return spec;
    }

    RouterConfig
    baseConfig() const
    {
        RouterConfig rc;
        rc.policy = RoutingPolicy::LeastOutstanding;
        rc.server.cacheRows = 200;
        rc.server.batchOverheadSeconds = 2e-6;
        rc.slaSeconds = 0.001;
        return rc;
    }

    /** The controlled modes under test, queue bound fixed. */
    RouterConfig
    modeConfig(const std::string &admission, bool degradation,
               double shed_pressure = 0.0) const
    {
        RouterConfig rc = baseConfig();
        rc.overload.admission.policy = admission;
        rc.overload.admission.maxOutstanding = 24;
        rc.overload.degradation.enabled = degradation;
        rc.overload.degradation.shedPressure = shed_pressure;
        return rc;
    }

    /** A trace at `multiplier` x the measured saturation rate. */
    RoutedTrace
    trace(double multiplier, std::uint64_t queries = 800) const
    {
        LoadConfig load;
        load.qps = multiplier *
            (saturationQps > 0.0 ? saturationQps : 100000.0);
        load.meanQuerySamples = 4.0;
        load.seed = model.features.front().hashSize ^ 0x60157ULL;
        return materializeRoutedTrace(data, load, queries);
    }
};

/** Contexts are expensive (profiling + planning); share per seed
 *  across every test in this binary. */
const Context &
context(std::uint64_t seed)
{
    static std::map<std::uint64_t, std::unique_ptr<Context>> cache;
    auto it = cache.find(seed);
    if (it == cache.end())
        it = cache.emplace(seed, std::make_unique<Context>(seed))
                 .first;
    return *it->second;
}

/** Conservation + internal-consistency checks every report must
 *  satisfy, whatever the policy or load. */
void
expectConserved(const RoutingReport &r, std::uint64_t offered)
{
    EXPECT_EQ(r.queries, offered);
    EXPECT_EQ(r.fullQueries + r.degradedQueries + r.shedQueries,
              r.queries);
    EXPECT_EQ(r.servedQueries, r.fullQueries + r.degradedQueries);
    EXPECT_EQ(std::accumulate(r.tierQueries.begin(),
                              r.tierQueries.end(),
                              std::uint64_t{0}),
              r.servedQueries);
    EXPECT_LE(r.goodQueries, r.servedQueries);
    EXPECT_LE(r.servedCandidates, r.offeredCandidates);
    EXPECT_GE(r.candidateFraction, 0.0);
    EXPECT_LE(r.candidateFraction, 1.0);
    // Every served query dispatched at least once; hedge copies
    // account for the rest.
    const std::uint64_t dispatched = std::accumulate(
        r.nodeQueries.begin(), r.nodeQueries.end(),
        std::uint64_t{0});
    EXPECT_EQ(dispatched,
              r.servedQueries + r.hedgedQueries - r.canceledCopies);
    if (r.durationSeconds > 0.0) {
        EXPECT_DOUBLE_EQ(
            r.qps, static_cast<double>(r.servedQueries) /
                r.durationSeconds);
        EXPECT_DOUBLE_EQ(
            r.goodput, static_cast<double>(r.goodQueries) /
                r.durationSeconds);
    }
}

TEST(OverloadProperty, ConservationAcrossPoliciesAndModes)
{
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        const RoutedTrace trace = cx.trace(2.0);
        const std::vector<RouterConfig> configs = {
            cx.modeConfig("admit-all", false),
            cx.modeConfig("queue-threshold", false),
            cx.modeConfig("adaptive", false),
            cx.modeConfig("queue-threshold", true),
            cx.modeConfig("queue-threshold", true, 3.0),
            cx.modeConfig("adaptive", true, 4.0),
        };
        for (const RouterConfig &rc : configs) {
            const RoutingReport r =
                Router(cx.model, cx.cluster, rc).route(trace);
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         " config " + r.name);
            expectConserved(r, trace.queries.size());
        }
    }
}

TEST(OverloadProperty, AdmitAllServesEverythingAtFullFidelity)
{
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        const RoutedTrace trace = cx.trace(2.0);
        const RoutingReport r =
            Router(cx.model, cx.cluster,
                   cx.modeConfig("admit-all", false))
                .route(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(r.servedQueries, r.queries);
        EXPECT_EQ(r.shedQueries, 0u);
        EXPECT_EQ(r.degradedQueries, 0u);
        EXPECT_DOUBLE_EQ(r.candidateFraction, 1.0);
    }
}

TEST(OverloadProperty, PureDegradeModeNeverSheds)
{
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        // 3x saturation, no backstop: every query is served, only
        // fidelity gives way.
        const RoutedTrace trace = cx.trace(3.0);
        const RoutingReport r =
            Router(cx.model, cx.cluster,
                   cx.modeConfig("queue-threshold", true))
                .route(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(r.shedQueries, 0u);
        EXPECT_EQ(r.servedQueries, r.queries);
        // This deep into overload, degradation must actually have
        // engaged, and degraded queries really serve fewer
        // candidates.
        EXPECT_GT(r.degradedQueries, 0u);
        EXPECT_LT(r.servedCandidates, r.offeredCandidates);
    }
}

TEST(OverloadProperty, GoodputFractionMonotoneInArrivalRate)
{
    // For a fixed policy, offering more traffic can only lower the
    // fraction of offered queries that complete inside the SLA.
    // The traces share a seed, so a higher rate is *the same*
    // arrival pattern compressed — not a different random draw.
    const std::vector<double> multipliers = {0.5, 1.5, 3.0};
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        const std::vector<RouterConfig> configs = {
            cx.modeConfig("admit-all", false),
            cx.modeConfig("queue-threshold", false),
            cx.modeConfig("adaptive", false),
            cx.modeConfig("queue-threshold", true, 3.0),
        };
        for (const RouterConfig &rc : configs) {
            double prev = 1.0;
            bool first = true;
            for (const double mult : multipliers) {
                const RoutedTrace trace = cx.trace(mult);
                const RoutingReport r =
                    Router(cx.model, cx.cluster, rc).route(trace);
                const double fraction =
                    static_cast<double>(r.goodQueries) /
                    static_cast<double>(r.queries);
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             " config " + r.name + " at " +
                             std::to_string(mult) + "x");
                if (!first) {
                    EXPECT_LE(fraction, prev);
                }
                prev = fraction;
                first = false;
            }
        }
    }
}

/** Field-for-field equality; doubles compared exactly — virtual
 *  time owes us bit-identical results, not "close" ones. */
void
expectIdentical(const RoutingReport &a, const RoutingReport &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.hedging, b.hedging);
    EXPECT_EQ(a.admission, b.admission);
    EXPECT_EQ(a.degradation, b.degradation);
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.durationSeconds, b.durationSeconds);
    EXPECT_EQ(a.qps, b.qps);
    EXPECT_EQ(a.servedQueries, b.servedQueries);
    EXPECT_EQ(a.fullQueries, b.fullQueries);
    EXPECT_EQ(a.degradedQueries, b.degradedQueries);
    EXPECT_EQ(a.shedQueries, b.shedQueries);
    EXPECT_EQ(a.shedRate, b.shedRate);
    EXPECT_EQ(a.degradedRate, b.degradedRate);
    EXPECT_EQ(a.goodQueries, b.goodQueries);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.offeredCandidates, b.offeredCandidates);
    EXPECT_EQ(a.servedCandidates, b.servedCandidates);
    EXPECT_EQ(a.candidateFraction, b.candidateFraction);
    EXPECT_EQ(a.tierQueries, b.tierQueries);
    EXPECT_EQ(a.tierCandidateFraction, b.tierCandidateFraction);
    EXPECT_EQ(a.maxNodeOutstanding, b.maxNodeOutstanding);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.p99Latency, b.p99Latency);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.slaSeconds, b.slaSeconds);
    EXPECT_EQ(a.slaViolationRate, b.slaViolationRate);
    EXPECT_EQ(a.hedgedQueries, b.hedgedQueries);
    EXPECT_EQ(a.hedgeRate, b.hedgeRate);
    EXPECT_EQ(a.hedgeWins, b.hedgeWins);
    EXPECT_EQ(a.canceledCopies, b.canceledCopies);
    EXPECT_EQ(a.wastedSeconds, b.wastedSeconds);
    EXPECT_EQ(a.wastedWorkFraction, b.wastedWorkFraction);
    EXPECT_EQ(a.hbmAccesses, b.hbmAccesses);
    EXPECT_EQ(a.uvmAccesses, b.uvmAccesses);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.uvmAccessFraction, b.uvmAccessFraction);
    EXPECT_EQ(a.cacheHitRate, b.cacheHitRate);
    EXPECT_EQ(a.nodeQueries, b.nodeQueries);
    EXPECT_EQ(a.nodeBusySeconds, b.nodeBusySeconds);
    EXPECT_EQ(a.clusterUtilization, b.clusterUtilization);
}

TEST(OverloadProperty, SameSeedGivesByteIdenticalReports)
{
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        const RoutedTrace trace = cx.trace(2.0);
        // The busiest configuration: hedging + adaptive admission
        // + degradation + backstop, all at once.
        RouterConfig rc = cx.modeConfig("adaptive", true, 4.0);
        rc.hedge.enabled = true;
        rc.hedge.quantile = 0.5;
        rc.hedge.minSamples = 16;
        const RoutingReport a =
            Router(cx.model, cx.cluster, rc).route(trace);
        const RoutingReport b =
            Router(cx.model, cx.cluster, rc).route(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectIdentical(a, b);
    }
}

TEST(OverloadProperty, HedgingUnderOverloadConservesWork)
{
    // Retro-coverage for PR 2: the hedging paths were only ever
    // tested below saturation. With admission shedding around
    // them, hedge bookkeeping must still balance.
    for (const std::uint64_t seed : seedList()) {
        const Context &cx = context(seed);
        const RoutedTrace trace = cx.trace(2.5);
        RouterConfig rc = cx.modeConfig("queue-threshold", false);
        rc.hedge.enabled = true;
        rc.hedge.quantile = 0.5;
        rc.hedge.minSamples = 16;
        const RoutingReport r =
            Router(cx.model, cx.cluster, rc).route(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectConserved(r, trace.queries.size());
        // Only admitted queries can hedge.
        EXPECT_LE(r.hedgedQueries, r.servedQueries);
        EXPECT_LE(r.canceledCopies, r.hedgedQueries);
        // Tied requests (the default): the moment one copy starts,
        // the sibling is recalled — no wasted service even while
        // admission churns the queues.
        EXPECT_EQ(r.canceledCopies, r.hedgedQueries);
        EXPECT_DOUBLE_EQ(r.wastedSeconds, 0.0);
    }
}

TEST(OverloadProperty, DegradeTiersAreMonotoneAndBounded)
{
    // DegradationPolicy in isolation: tiers never regress as
    // pressure rises, kept candidates never exceed offered, and a
    // shed verdict is always served at tier >= 1.
    DegradationConfig config;
    config.enabled = true;
    for (const std::uint64_t seed : seedList()) {
        Rng rng(seed);
        const DegradationPolicy policy(config);
        double pressure = 0.0;
        std::uint32_t prev_tier = 0;
        for (int step = 0; step < 200; ++step) {
            pressure += rng.uniform(0.0, 0.05);
            AdmissionVerdict v;
            v.pressure = pressure;
            v.admit = pressure < 1.0;
            const std::uint32_t tier = policy.tierFor(v);
            ASSERT_LT(tier, policy.numTiers());
            EXPECT_GE(tier, prev_tier);
            if (!v.admit) {
                EXPECT_GE(tier, 1u);
            }
            prev_tier = tier;

            const auto offered = static_cast<std::uint32_t>(
                rng.uniformInt(1, 64));
            const std::uint32_t kept =
                policy.degradedSamples(offered, tier);
            EXPECT_GE(kept, 1u);
            EXPECT_LE(kept, offered);
            // ceil semantics: the tier factor is a floor on the
            // kept fraction.
            EXPECT_GE(static_cast<double>(kept),
                      config.tierFactors[tier] *
                          static_cast<double>(offered) - 1e-9);
        }
    }
}

TEST(OverloadProperty, MisconfigurationsFailFast)
{
    // queue-threshold needs an explicit bound (0 means "unset";
    // callers derive one through deriveQueueBound).
    AdmissionConfig unset;
    unset.policy = "queue-threshold";
    EXPECT_DEATH(makeAdmissionController(unset, 2, 0.001),
                 "positive outstanding bound");
    EXPECT_DEATH(
        makeAdmissionController({"no-such-policy", 0, 0.0, 0.1},
                                2, 0.001),
        "unknown admission controller");
    // A single full-fidelity tier with no backstop would silently
    // reproduce admit-all under a "+degrade" label.
    DegradationConfig single;
    single.enabled = true;
    single.tierFactors = {1.0};
    single.tierPressure = {};
    EXPECT_DEATH(DegradationPolicy{single}, "single");
    // The same config with a backstop is a legitimate
    // "full fidelity or shed" policy.
    single.shedPressure = 1.0;
    EXPECT_EQ(DegradationPolicy(single).numTiers(), 1u);
}

TEST(OverloadProperty, DerivedQueueBoundSpendsAThirdOfTheSla)
{
    // bound x service ~= sla / 3, truncated, never below 4.
    EXPECT_EQ(deriveQueueBound(15.0, 1.0), 5u);
    EXPECT_EQ(deriveQueueBound(0.005, 1e-5), 166u);
    EXPECT_EQ(deriveQueueBound(12.0, 1.0), 4u);
    EXPECT_EQ(deriveQueueBound(3.0, 1.0), 4u);
    EXPECT_EQ(deriveQueueBound(0.001, 1.0), 4u);
    for (const std::uint64_t seed : seedList()) {
        Rng rng(seed);
        const double sla = rng.uniform(1e-4, 1e-1);
        const double service = rng.uniform(1e-7, 1e-3);
        EXPECT_EQ(deriveQueueBound(sla, service),
                  std::max<std::uint64_t>(
                      4, static_cast<std::uint64_t>(
                             sla / 3.0 / service)));
    }
    EXPECT_DEATH(deriveQueueBound(0.0, 1e-5), "positive SLA");
    EXPECT_DEATH(deriveQueueBound(-0.005, 1e-5), "positive SLA");
    EXPECT_DEATH(deriveQueueBound(0.005, 0.0), "positive SLA");
    EXPECT_DEATH(deriveQueueBound(0.005, -1e-5), "positive SLA");
}

TEST(OverloadProperty, QueueThresholdVerdictMatchesItsContract)
{
    for (const std::uint64_t seed : seedList()) {
        AdmissionConfig config;
        config.policy = "queue-threshold";
        config.maxOutstanding = 1 + seed % 64;
        const auto controller =
            makeAdmissionController(config, 4, 0.001);
        for (std::uint64_t out = 0;
             out < 3 * config.maxOutstanding; ++out) {
            const AdmissionVerdict v =
                controller->decide(0.0, out % 4, out);
            EXPECT_EQ(v.admit, out < config.maxOutstanding);
            EXPECT_DOUBLE_EQ(
                v.pressure,
                static_cast<double>(out) /
                    static_cast<double>(config.maxOutstanding));
        }
    }
}

TEST(OverloadProperty, AdaptiveVerdictMatchesItsContract)
{
    // A reference EWMA per node, updated with the same expressions
    // the contract states; every verdict must match it exactly.
    for (const std::uint64_t seed : seedList()) {
        Rng rng(seed);
        const std::uint32_t nodes = 4;
        AdmissionConfig config;
        config.policy = "adaptive";
        config.targetDelaySeconds = rng.uniform(1e-4, 1e-3);
        config.serviceAlpha = rng.uniform(0.05, 1.0);
        const double target = config.targetDelaySeconds;
        const double alpha = config.serviceAlpha;
        const auto controller =
            makeAdmissionController(config, nodes, 0.001);

        // A cold node predicts zero delay at any queue depth.
        for (std::uint32_t n = 0; n < nodes; ++n) {
            const AdmissionVerdict v =
                controller->decide(0.0, n, 1000);
            EXPECT_TRUE(v.admit);
            EXPECT_EQ(v.pressure, 0.0);
        }

        std::vector<double> estimate(nodes, 0.0);
        for (int step = 0; step < 200; ++step) {
            const auto n =
                static_cast<std::uint32_t>(rng.uniformInt(0, 3));
            const double x = rng.uniform(1e-6, 1e-4);
            controller->observeDispatch(n, 0.0, 0.0, x);
            estimate[n] = estimate[n] == 0.0
                ? x
                : (1.0 - alpha) * estimate[n] + alpha * x;

            const auto out =
                static_cast<std::uint64_t>(rng.uniformInt(0, 40));
            const AdmissionVerdict v =
                controller->decide(0.0, n, out);
            const double predicted =
                static_cast<double>(out) * estimate[n];
            EXPECT_EQ(v.pressure, predicted / target);
            EXPECT_EQ(v.admit, predicted <= target);
        }
    }
}

} // namespace
