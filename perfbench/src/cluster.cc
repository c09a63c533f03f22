/**
 * @file
 * Workload "serve-3tier": 3 nodes x 2 GPUs of three-tier (HBM /
 * DRAM / SSD) nodes whose per-node plans are re-solved at the start
 * of every pass. Router::route serves one materialized Poisson trace
 * at three fixed absolute rates (LRU cache with cdf-gated admission,
 * least-outstanding routing with p95 hedging, queue-threshold
 * admission with degradation). The routing DES, ShardServer pricing,
 * the cache, the tier resolvers and overload control do the work.
 *
 * Offered rates are absolute numbers frozen from
 * estimateSaturationQps on this code, so a faster system still sees
 * the same offered load.
 *
 * Its traced run also serves a drifting trace through
 * LiveReplanServer::serve with replanning armed, so the replan
 * layer's sketch updates, re-solves and migration are measured.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/overload/admission.hh"
#include "recshard/replan/live.hh"
#include "recshard/routing/realtime.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/sharding/cluster_plan.hh"
#include "recshard/tiering/topology.hh"
#include "workloads.hh"

using namespace recshard;

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "train-rm", "serve-3tier"};
    return names;
}

// ------------------------------------------------------------- helpers

std::vector<double>
arrivalStamps(const RoutedTrace &trace)
{
    std::vector<double> out;
    out.reserve(trace.queries.size());
    for (const RoutedQuery &q : trace.queries)
        out.push_back(q.query.arrival);
    return out;
}

void
rescaleArrivals(RoutedTrace &trace, const std::vector<double> &base,
                double scale)
{
    for (std::size_t i = 0; i < trace.queries.size(); ++i)
        trace.queries[i].query.arrival = base[i] * scale;
}

double
slaRateSearch(const std::function<bool(double)> &meets, double lo,
              double hi, unsigned steps)
{
    if (!meets(lo))
        return lo;
    for (unsigned i = 0; i < steps; ++i) {
        const double mid = (lo + hi) / 2.0;
        (meets(mid) ? lo : hi) = mid;
    }
    return lo;
}

bool
meetsSla(const RoutingReport &report, double arrival_span_seconds)
{
    return report.shedQueries == 0 &&
        report.p99Latency <= report.slaSeconds &&
        report.durationSeconds <=
            arrival_span_seconds + report.slaSeconds;
}

bool
conserves(const RoutingReport &r)
{
    return r.fullQueries + r.degradedQueries + r.shedQueries ==
            r.queries &&
        r.servedQueries == r.fullQueries + r.degradedQueries;
}

namespace {

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kGpusPerNode = 2;
constexpr std::uint64_t kModelSeed = 7;
constexpr std::uint32_t kDim = 128;
constexpr std::uint64_t kProfileSamples = 30000;
constexpr double kPlanWindowSeconds = 0.25;
constexpr std::uint32_t kSetupRepeats = 3;
constexpr std::uint32_t kMinPasses = 4;

/** One cluster workload's fixed shape. */
struct Shape
{
    std::uint32_t features = 16;
    std::uint64_t rows = 20000;
    /** Zipf skew forced on every table; 0 keeps the model's own. */
    double alpha = 0.0;
    /** HBM / DRAM / SSD nodes; false gives HBM / host-DRAM nodes. */
    bool threeTier = true;
    /** Node HBM and DRAM, as fractions of the model's bytes. */
    double hbmFrac = 0.10;
    double dramFrac = 0.25;
    std::uint64_t queries = 12000;
    /** Mean ranking candidates per query. */
    double meanSamples = 2.0;
    double slaSeconds = 2e-3;
    std::uint64_t cacheRows = 500;
    /** Saturation rate the offered rates are multiples of. */
    double frozenSaturationQps = 1.0;
};

struct Setup
{
    ModelSpec model;
    std::unique_ptr<SyntheticDataset> data;
    SystemSpec node;
    std::vector<EmbProfile> profiles;
    RoutedTrace trace;
    std::vector<double> base; //!< arrival stamps at the frozen rate
    double traceBuildSeconds = 0.0;
    double traceMb = 0.0;
};

ModelSpec
makeModel(const Shape &shape)
{
    ModelSpec model =
        makeTinyModel(shape.features, shape.rows, kModelSeed);
    for (auto &f : model.features) {
        f.dim = kDim;
        if (shape.alpha > 0.0) {
            // One raw value per hash row and one strong skew, so the
            // hot set is concentrated and its monthly rotation erodes
            // the pinned overlap gradually.
            f.cardinality = f.hashSize;
            f.alpha = shape.alpha;
        }
    }
    return model;
}

SystemSpec
makeNode(const ModelSpec &model, const Shape &shape)
{
    const double total = static_cast<double>(model.totalBytes());
    const auto per_gpu = [&](double frac) {
        return static_cast<std::uint64_t>(total * frac / kGpusPerNode);
    };
    if (shape.threeTier)
        return threeTierNode(kGpusPerNode, per_gpu(shape.hbmFrac),
                             per_gpu(shape.dramFrac), per_gpu(1.0),
                             false);
    SystemSpec node = SystemSpec::paper(kGpusPerNode, 1.0);
    node.hbm.capacityBytes = per_gpu(shape.hbmFrac);
    node.uvm.capacityBytes = model.totalBytes();
    return node;
}

/** Build model, data, profile and trace; `drift` > 0 makes the trace
 *  sweep 12 months of hot-set churn. */
std::unique_ptr<Setup>
buildSetup(const Shape &shape, std::uint64_t seed, double drift,
           Tracer &tracer)
{
    auto s = std::make_unique<Setup>();
    s->model = makeModel(shape);
    s->data = std::make_unique<SyntheticDataset>(s->model, seed);
    s->node = makeNode(s->model, shape);
    {
        const SyntheticDataset planning(s->model, kPlanningSeed);
        auto span = tracer.span("profiler.profileDataset");
        s->profiles = profileDataset(planning, kProfileSamples);
    }
    LoadConfig load;
    load.qps = shape.frozenSaturationQps;
    load.meanQuerySamples = shape.meanSamples;
    load.seed = seed ^ 0x60157ULL;
    const double rss0 = currentRssMb();
    const Clock::time_point t0 = Clock::now();
    {
        auto span = tracer.span("routing.materializeRoutedTrace");
        if (drift > 0.0) {
            DriftModel dm;
            dm.hotChurnPerMonth = drift;
            s->data->setDrift(dm);
            s->trace = materializeDriftingRoutedTrace(
                *s->data, load, shape.queries, DriftTraceSchedule{});
        } else {
            s->trace =
                materializeRoutedTrace(*s->data, load, shape.queries);
        }
    }
    s->traceBuildSeconds = secondsSince(t0);
    s->traceMb = currentRssMb() - rss0;
    s->base = arrivalStamps(s->trace);
    return s;
}

/** The cluster a pass serves: per-node solves, then resolvers. */
RoutingCluster
buildCluster(const Setup &s, Tracer &tracer, PassSample &p)
{
    ClusterPlanOptions cp;
    cp.numNodes = kNodes;
    RoutingCluster c;
    // One solve takes milliseconds; repeat it over a window long
    // enough to time steadily and report the mean per solve.
    std::uint32_t solves = 0;
    Clock::time_point t0 = Clock::now();
    do {
        auto span = tracer.span("planner.solveNodePlans");
        c.planSet = solveNodePlans(s.model, s.profiles, s.node, cp);
        ++solves;
    } while (secondsSince(t0) < kPlanWindowSeconds);
    p.hostSeconds["plan_window"] = secondsSince(t0);
    p.hostSeconds["plan"] = p.hostSeconds["plan_window"] / solves;
    {
        auto span = tracer.span("remap.buildResolvers");
        for (const ShardingPlan &plan : c.planSet.plans)
            c.resolvers.push_back(ExecutionEngine::buildResolvers(
                s.model, plan, s.profiles));
    }
    std::uint64_t pinned = 0;
    double est = 0.0;
    for (std::uint32_t n = 0; n < c.numNodes(); ++n) {
        for (const EmbPlacement &e : c.planSet.plans[n].tables)
            pinned += e.hbmRows;
        est = std::max(est, c.planSet.diags[n].bottleneckCost);
    }
    p.virtuals["planner.pinned_rows"] = static_cast<double>(pinned);
    p.virtuals["planner.est_bottleneck_ms"] = est * 1e3;
    return c;
}

void
checkPlans(const Setup &s, const RoutingCluster &c, Checks &checks)
{
    for (std::uint32_t n = 0; n < c.numNodes(); ++n) {
        checks.expect(c.planSet.diags[n].feasible,
                      "node " + std::to_string(n) +
                          " plan is infeasible");
        // validate() aborts the run on failure.
        c.planSet.plans[n].validate(s.model, c.nodeSystem(n));
    }
}

// --------------------------------------------------------- serve-3tier

const Shape kServeShape = [] {
    Shape s;
    // estimateSaturationQps on this shape at seed 1: 30891.
    s.frozenSaturationQps = 30900.0;
    return s;
}();

constexpr double kRateMultipliers[] = {0.6, 0.9, 1.5};

RouterConfig
serveConfig(const Setup &s)
{
    RouterConfig cfg;
    cfg.policy = RoutingPolicy::LeastOutstanding;
    cfg.hedge.enabled = true;
    cfg.hedge.quantile = 0.95;
    cfg.server.cacheRows = kServeShape.cacheRows;
    cfg.server.batchOverheadSeconds = 1e-6;
    cfg.server.admission.policy = "cdf-gated";
    cfg.server.admission.cdfs = collectCdfs(s.profiles);
    cfg.slaSeconds = kServeShape.slaSeconds;
    cfg.overload.admission.policy = "queue-threshold";
    cfg.overload.admission.maxOutstanding = deriveQueueBound(
        cfg.slaSeconds, kNodes / kServeShape.frozenSaturationQps);
    cfg.overload.degradation.enabled = true;
    cfg.overload.degradation.shedPressure = 3.0;
    return cfg;
}

double
executedLookups(const RoutingReport &r)
{
    return static_cast<double>(r.hbmAccesses + r.uvmAccesses +
                               r.cacheHits);
}

// --------------------------------------------------- replan probe

/** The drifting cluster the traced run's replan probe serves. */
const Shape kDriftShape = [] {
    Shape s;
    s.features = 12;
    s.alpha = 1.2;
    // Live migration on three-tier nodes trips
    // ShardingPlan::validate (tier-0 rows vs hbmRows), so the probe
    // keeps the two-tier node bench_replan_drift uses.
    s.threeTier = false;
    s.hbmFrac = 0.2;
    s.queries = 18000;
    s.meanSamples = 2.0;
    s.cacheRows = 0;
    // estimateSaturationQps on this shape's drifting trace: 190048
    // (seed 1), 187912 (seed 2).
    s.frozenSaturationQps = 189000.0;
    return s;
}();

constexpr double kDriftLoad = 0.65;
constexpr double kChurnPerMonth = 0.05;

ReplanConfig
replanConfig(const Setup &s)
{
    const Shape &shape = kDriftShape;
    ReplanConfig rc;
    rc.server.cacheRows = shape.cacheRows;
    rc.server.batchOverheadSeconds = 1e-6;
    rc.slaSeconds = shape.slaSeconds;
    // Track at least one GPU's HBM worth of rows exactly, so no pin
    // of a replacement plan falls on a synthetic tail row.
    std::uint64_t min_row_bytes = ~0ull;
    for (const auto &f : s.model.features)
        min_row_bytes = std::min(min_row_bytes, f.rowBytes());
    const std::uint64_t budget_rows =
        s.node.hbm.capacityBytes / min_row_bytes;
    std::uint32_t k = 1024;
    while (k < budget_rows && k < (1u << 20))
        k *= 2;
    rc.sketch.topK = k;
    rc.sketch.width = 4 * k;
    rc.drift.hitDropThreshold = 0.04;
    rc.drift.minSpeedup = 1.02;
    rc.migration.rowsPerStep = 256;
    rc.migration.stepOverheadSeconds = 20e-6;
    rc.epochQueries = 1500;
    rc.maxReplans = 2;
    rc.overload.admission.policy = "queue-threshold";
    rc.overload.admission.maxOutstanding = 4 *
        deriveQueueBound(rc.slaSeconds,
                         kNodes / shape.frozenSaturationQps);
    return rc;
}

/**
 * Serve an 18000-query trace that drifts over 12 months through
 * LiveReplanServer::serve at 0.65x of a frozen 189000 QPS, with at
 * most 2 replans armed. Every lookup updates a sketch; drift
 * triggers assessReshard re-solves, pin flips and idle-gap
 * migration. Records replan.serve_s (one host-timed call) and the
 * ReplanReport counts.
 */
void
runReplanProbe(std::uint64_t seed, Tracer &tracer, Checks &checks,
               Metrics &m)
{
    const std::unique_ptr<Setup> setup =
        buildSetup(kDriftShape, seed, kChurnPerMonth, tracer);
    Setup &s = *setup;
    rescaleArrivals(s.trace, s.base, 1.0 / kDriftLoad);
    PassSample unused;
    const RoutingCluster cluster = buildCluster(s, tracer, unused);
    checkPlans(s, cluster, checks);

    const LiveReplanServer server(s.model, cluster, replanConfig(s));
    const Clock::time_point t0 = Clock::now();
    ReplanReport r;
    {
        auto span = tracer.span("replan.LiveReplanServer.serve");
        r = server.serve(s.trace);
    }
    m["replan.serve_s"] = {secondsSince(t0), "s"};
    checks.expect(r.servedQueries + r.shedQueries == r.queries,
                  "replan report does not conserve queries");
    checks.expect(r.shedDuringMigration == 0,
                  "queries shed during migration");
    checks.expect(r.replansCompleted >= 1,
                  "no replan completed (vacuous replan probe)");
    std::cout << "replan probe: " << r.queries << " drifting queries at "
              << kDriftLoad << "x of " << kDriftShape.frozenSaturationQps
              << " QPS; served " << r.servedQueries << "; "
              << r.replansCompleted << " replans, " << r.migratedRows
              << " rows migrated in " << r.migrationSteps << " steps\n";
    m["replan.replans_completed"] = {
        static_cast<double>(r.replansCompleted), "count"};
    m["replan.migrated_rows"] = {static_cast<double>(r.migratedRows),
                                 "count"};
    m["replan.migration_steps"] = {
        static_cast<double>(r.migrationSteps), "count"};
    m["replan.shed_during_migration"] = {
        static_cast<double>(r.shedDuringMigration), "count"};
}

} // namespace

RunReport
runServe3Tier(const RunOptions &opts)
{
    RunReport rep;
    Tracer tracer(opts.trace);
    Checks &checks = rep.checks;
    const Shape &shape = kServeShape;

    std::unique_ptr<Setup> setup;
    const double setup_s = medianSetupSeconds(
        opts.trace ? 1 : kSetupRepeats, [&] {
            setup.reset();
            setup = buildSetup(shape, opts.seed, 0.0, tracer);
        });
    Setup &s = *setup;
    const RouterConfig cfg = serveConfig(s);
    const double saturation = shape.frozenSaturationQps;

    std::unique_ptr<RoutingCluster> cluster;
    std::vector<RoutingReport> reports; // last pass, one per rate
    double lookups = 0.0;
    const PassSeries series = runPasses(
        opts.seconds, kMinPasses, [&](std::uint32_t n) {
            tracer.beginPass(n);
            PassSample p;
            auto c = std::make_unique<RoutingCluster>(
                buildCluster(s, tracer, p));
            std::vector<RoutingReport> rs;
            double main_s = 0.0, pass_lookups = 0.0;
            for (const double mult : kRateMultipliers) {
                rescaleArrivals(s.trace, s.base, 1.0 / mult);
                const Router router(s.model, *c, cfg);
                const Clock::time_point t0 = Clock::now();
                {
                    auto span = tracer.span("routing.Router.route");
                    rs.push_back(router.route(s.trace));
                }
                main_s += secondsSince(t0);
                pass_lookups += executedLookups(rs.back());
            }
            p.hostSeconds["main"] = main_s;
            lookups = pass_lookups;
            const RoutingReport &lo = rs[0], &mid = rs[1], &hi = rs[2];
            auto &v = p.virtuals;
            v["uvm_access_frac"] = lo.uvmAccessFraction;
            v["virt_p50_us"] = lo.p50Latency * 1e6;
            v["virt_p99_us"] = lo.p99Latency * 1e6;
            v["virt_p99_us.hi"] = mid.p99Latency * 1e6;
            v["goodput_qps"] = hi.goodput;
            v["serving.cache_hit_rate"] = lo.cacheHitRate;
            v["serving.utilization"] = lo.clusterUtilization;
            v["overload.shed_frac"] = hi.shedRate;
            v["overload.degraded_frac"] = hi.degradedRate;
            v["overload.max_node_outstanding"] =
                static_cast<double>(hi.maxNodeOutstanding);
            v["routing.hedge_rate"] = lo.hedgeRate;
            v["routing.wasted_work_frac"] = lo.wastedWorkFraction;
            double fail = 0.0;
            for (const RoutingReport &r : rs)
                fail += static_cast<double>(r.shedQueries) +
                    r.slaViolationRate *
                        static_cast<double>(r.servedQueries);
            v["fail_frac"] = fail / static_cast<double>(
                                        3 * s.trace.queries.size());
            reports = std::move(rs);
            cluster = std::move(c);
            return p;
        });

    // ------------------------------------------------------ checks
    checkPlans(s, *cluster, checks);
    for (const RoutingReport &r : reports)
        checks.expect(conserves(r), r.name + " does not conserve "
                                             "queries");
    checkVirtualsRepeat(series, checks);

    // Mirror replay of the 0.6x decisions on real threads (hedging
    // is DES-only, so both sides run with it off).
    {
        RouterConfig mc = cfg;
        mc.hedge.enabled = false;
        rescaleArrivals(s.trace, s.base, 1.0 / kRateMultipliers[0]);
        std::vector<RouteDecision> decisions;
        const RoutingReport des =
            Router(s.model, *cluster, mc).route(s.trace, &decisions);
        RealTimeConfig rt;
        rt.router = mc;
        rt.mode = "mirror";
        rt.workerThreads = 1;
        rt.producerThreads = 1;
        const RealTimeReport real =
            RealTimeExecutor(s.model, *cluster, rt)
                .run(s.trace, decisions);
        checks.expect(ledgerOf(des) == ledgerOf(real),
                      "mirror replay ledger differs from the DES:\n" +
                          describeLedger(ledgerOf(des)) + "vs\n" +
                          describeLedger(ledgerOf(real)));
    }

    // sla_qps: bisection on a prefix of the trace.
    double sla_qps = 0.0;
    {
        RoutedTrace prefix;
        const std::size_t n = std::min<std::size_t>(
            5000, s.trace.queries.size());
        prefix.queries.assign(s.trace.queries.begin(),
                              s.trace.queries.begin() + n);
        const std::vector<double> base(s.base.begin(),
                                       s.base.begin() + n);
        const Router router(s.model, *cluster, cfg);
        sla_qps = slaRateSearch(
            [&](double qps) {
                rescaleArrivals(prefix, base, saturation / qps);
                return meetsSla(router.route(prefix),
                                (base.back() - base.front()) *
                                    saturation / qps);
            },
            0.2 * saturation, 2.0 * saturation, 6);
    }

    const auto &v = series.warmup.virtuals;
    std::cout << "serve-3tier: " << series.timed.size()
              << " timed passes; " << s.trace.queries.size()
              << " queries at " << kRateMultipliers[0] << "x, "
              << kRateMultipliers[1] << "x, " << kRateMultipliers[2]
              << "x of " << saturation << " QPS\n"
              << "served at 0.6x: " << reports[0].servedQueries
              << "; at 0.9x: " << reports[1].servedQueries
              << "; at 1.5x: " << reports[2].servedQueries << "\n";
    for (const auto &[name, value] : v)
        std::cout << "metric " << name << " " << value << "\n";
    std::cout << "metric sla_qps " << sla_qps << "\n";

    Metrics &m = rep.metrics;
    if (!opts.trace) {
        printWindows(std::cout, "plan_s", series.windows("plan_window"));
        printWindows(std::cout, "lookups_per_s", series.windows("main"));
        m["setup_s"] = {setup_s, "s"};
        m["plan_s"] = {series.medianHost("plan"), "s"};
        m["lookups_per_s"] = {lookups / series.medianHost("main"), "1/s"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
        m["uvm_access_frac"] = {v.at("uvm_access_frac"), "frac"};
        m["virt_p50_us"] = {v.at("virt_p50_us"), "us"};
        m["virt_p99_us"] = {v.at("virt_p99_us"), "us"};
        m["goodput_per_s"] = {v.at("goodput_qps"), "1/s"};
        return rep;
    }

    // ------------------------------------------------ traced run only
    const auto last_pass =
        static_cast<std::uint32_t>(series.timed.size());
    const auto self = tracer.selfTimes(1, last_pass);
    m["profiler.profile_s"] = {
        tracer.selfTimes(0, 0).at("profiler.profileDataset")
            .totalSeconds, "s"};
    m["planner.solve_s"] = {
        self.at("planner.solveNodePlans").perCallSeconds(), "s"};
    m["remap.build_s"] = {
        self.at("remap.buildResolvers").perCallSeconds(), "s"};
    m["routing.route_s"] = {
        self.at("routing.Router.route").perCallSeconds(), "s"};
    m["routing.trace_build_s"] = {s.traceBuildSeconds, "s"};
    m["routing.trace_mb"] = {s.traceMb, "MB"};
    m["routing.sla_qps"] = {sla_qps, "1/s"};
    m["planner.est_bottleneck_ms"] = {v.at("planner.est_bottleneck_ms"),
                                      "ms"};
    m["planner.pinned_rows"] = {v.at("planner.pinned_rows"), "count"};
    for (const char *name :
         {"serving.cache_hit_rate", "serving.utilization",
          "overload.shed_frac", "overload.degraded_frac",
          "routing.hedge_rate", "routing.wasted_work_frac"})
        m[name] = {v.at(name), "frac"};
    m["overload.max_node_outstanding"] = {
        v.at("overload.max_node_outstanding"), "count"};
    m["trace.overhead_frac"] = {tracingOverhead(series, lookups),
                                "frac"};

    tracer.beginProbes(last_pass + 1);
    {
        auto span = tracer.span("routing.estimateSaturationQps");
        rescaleArrivals(s.trace, s.base, 1.0);
        m["routing.saturation_qps"] = {
            estimateSaturationQps(s.model, *cluster, cfg, s.trace),
            "1/s"};
    }
    runReplanProbe(opts.seed, tracer, checks, m);
    ProbeInputs in;
    in.data = s.data.get();
    in.trace = &s.trace;
    in.plan = &cluster->planSet.plans[0];
    in.resolvers = &cluster->resolvers[0];
    in.system = cluster->nodeSystem(0);
    runLayerProbes(in, tracer, m);
    emitTrace(opts, tracer, 0, last_pass + 1, m);
    completePerLayer(m);
    return rep;
}

} // namespace perfbench
