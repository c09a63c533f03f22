/**
 * @file
 * Per-layer probes: single public calls timed from outside, on the
 * workload's own inputs, each inside a span. They run only in the
 * traced run, after the timed passes, so they never disturb an
 * end-to-end number.
 */

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>

#include "recshard/core/pipeline.hh"
#include "recshard/engine/execution.hh"
#include "recshard/replan/live.hh"
#include "recshard/replan/sketch.hh"
#include "recshard/serving/lru_cache.hh"
#include "recshard/serving/shard_server.hh"
#include "workloads.hh"

using namespace recshard;

namespace perfbench {

namespace {

/** Minimum wall time one ns-per-op probe repeats its loop for. */
constexpr double kProbeSeconds = 0.25;
/** Queries of the trace the serving and replan probes read. */
constexpr std::size_t kProbeQueries = 4000;

/** Repeat `body` (returning ops done) until kProbeSeconds passed;
 *  record `<name>` in ns per op and `<calls>` as the op count. */
template <typename Body>
void
probe(Tracer &tracer, Metrics &out, const char *span_name,
      const std::string &name, const std::string &calls, Body body)
{
    auto span = tracer.span(span_name);
    std::uint64_t ops = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        ops += body();
    } while (secondsSince(t0) < kProbeSeconds);
    const double seconds = secondsSince(t0);
    out[name] = {ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0,
                 "ns"};
    out[calls] = {static_cast<double>(ops), "count"};
}

/** Repeat `call` until kProbeSeconds passed and record `name` as
 *  seconds per call, unless the workload's passes already timed it. */
template <typename Call>
void
probeCall(Tracer &tracer, Metrics &out, const char *span_name,
          const std::string &name, Call call)
{
    if (out.count(name))
        return;
    auto span = tracer.span(span_name);
    std::uint64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    do {
        call(calls++);
    } while (secondsSince(t0) < kProbeSeconds);
    out[name] = {secondsSince(t0) / static_cast<double>(calls), "s"};
}

std::size_t
probeQueries(const RoutedTrace &trace)
{
    return std::min(kProbeQueries, trace.queries.size());
}

} // namespace

void
runLayerProbes(const ProbeInputs &in, Tracer &tracer, Metrics &out)
{
    const ModelSpec &model = in.data->spec();
    const RoutedTrace &trace = *in.trace;
    const std::vector<TierResolver> &res = *in.resolvers;
    const std::size_t nq = probeQueries(trace);
    volatile std::uint64_t sink = 0;

    std::uint64_t batch_index = 1ULL << 50;
    probe(tracer, out, "datagen.SyntheticDataset.batch",
          "datagen.ns_per_lookup", "datagen.calls", [&] {
              const SparseBatch b =
                  in.data->batch(in.batchSize, batch_index++);
              std::uint64_t n = 0;
              for (const FeatureBatch &f : b.features)
                  n += f.numLookups();
              return n;
          });

    probe(tracer, out, "remap.TierResolver.tierOf", "remap.tierof_ns",
          "remap.tierof_calls", [&] {
              std::uint64_t n = 0, acc = 0;
              for (std::size_t i = 0; i < nq; ++i) {
                  const RoutedQuery &q = trace.queries[i];
                  for (std::size_t j = 0; j < q.lookups.size(); ++j)
                      for (const std::uint64_t row : q.lookups[j])
                          acc += res[j].tierOf(row);
                  n += q.totalLookups;
              }
              sink = sink + acc;
              return n;
          });

    // The LRU sees what it sees in serving: the rows that miss HBM.
    std::vector<std::uint64_t> misses;
    for (std::size_t i = 0; i < nq; ++i) {
        const RoutedQuery &q = trace.queries[i];
        for (std::size_t j = 0; j < q.lookups.size(); ++j)
            for (const std::uint64_t row : q.lookups[j])
                if (res[j].tierOf(row) != 0)
                    misses.push_back(LruRowCache::rowKey(
                        static_cast<std::uint32_t>(j), row));
    }
    probe(tracer, out, "serving.LruRowCache.touch",
          "serving.lru_touch_ns", "serving.lru_touch_calls", [&] {
              LruRowCache cache(4096);
              std::uint64_t hits = 0;
              for (const std::uint64_t key : misses)
                  hits += cache.touch(key);
              sink = sink + hits;
              return static_cast<std::uint64_t>(misses.size());
          });

    probe(tracer, out, "replan.RowFrequencySketch.observe",
          "replan.observe_ns", "replan.observe_calls", [&] {
              std::vector<RowFrequencySketch> sketches;
              for (const FeatureSpec &f : model.features)
                  sketches.emplace_back(f.hashSize, SketchConfig{});
              std::uint64_t n = 0;
              for (std::size_t i = 0; i < nq; ++i) {
                  const RoutedQuery &q = trace.queries[i];
                  for (std::size_t j = 0; j < q.lookups.size(); ++j)
                      for (const std::uint64_t row : q.lookups[j])
                          sketches[j].observe(row);
                  n += q.totalLookups;
              }
              return n;
          });

    // One node's pricing of its share of the trace; its per-tier
    // totals give the tier access shares.
    std::vector<std::uint64_t> tiers;
    probe(tracer, out, "serving.ShardServer.execute",
          "serving.execute_ns_per_lookup", "serving.execute_calls",
          [&] {
              ShardServerPool pool(model, *in.plan, res, in.system,
                                   ShardServerConfig{});
              std::uint64_t n = 0;
              for (std::size_t i = 0; i < nq; ++i) {
                  const RoutedQuery &q = trace.queries[i];
                  (void)pool.executeOne(q.asBatch(q.query.arrival),
                                        q.lookups);
                  n += q.totalLookups;
              }
              tiers.assign(in.system.numTiers(), 0);
              for (const ShardServer &srv : pool.servers())
                  for (std::size_t t = 0; t < tiers.size(); ++t)
                      tiers[t] += srv.tierAccessTotals()[t];
              return n;
          });
    std::uint64_t tier_sum = 0;
    for (const std::uint64_t t : tiers)
        tier_sum += t;
    const char *tier_names[] = {"tiering.access_frac.hbm",
                                "tiering.access_frac.dram",
                                "tiering.access_frac.ssd"};
    for (std::size_t t = 0; t < tiers.size() && t < 3; ++t)
        out[tier_names[t]] = {static_cast<double>(tiers[t]) /
                                  static_cast<double>(tier_sum),
                              "frac"};

    LiveProfiler live(model, SketchConfig{});
    for (std::size_t i = 0; i < nq; ++i)
        live.observeQuery(trace.queries[i],
                          trace.queries[i].query.samples);
    std::vector<EmbProfile> fresh;
    Clock::time_point t0 = Clock::now();
    {
        auto span = tracer.span("replan.LiveProfiler.exportProfiles");
        fresh = live.exportProfiles();
    }
    out["replan.export_s"] = {secondsSince(t0), "s"};
    t0 = Clock::now();
    {
        auto span = tracer.span("replan.assessReshard");
        const ReshardAssessment a = assessReshard(
            model, fresh, in.system, *in.plan, res);
        sink = sink + static_cast<std::uint64_t>(a.speedup);
    }
    out["replan.assess_s"] = {secondsSince(t0), "s"};

    // Replay, route and live serving on a one-node cluster of the
    // probe plan, for the layers the workload's passes do not call.
    RoutingCluster one;
    one.planSet.nodeSpecs = {in.system};
    one.planSet.slices.emplace_back(model.features.size());
    std::iota(one.planSet.slices[0].begin(),
              one.planSet.slices[0].end(), 0u);
    one.planSet.plans = {*in.plan};
    one.planSet.diags.resize(1);
    one.resolvers = {res};
    const ExecutionEngine engine(*in.data, in.system,
                                 EmbCostModel(in.system));
    probeCall(tracer, out, "engine.ExecutionEngine.replay",
              "engine.replay_s", [&](std::uint64_t call) {
                  ReplayConfig rc;
                  rc.batchSize = in.batchSize;
                  rc.warmupIterations = 0;
                  rc.measureIterations = 1;
                  rc.firstBatchIndex = call;
                  (void)engine.replay({in.plan}, one.resolvers, rc);
              });
    const Router router(model, one, RouterConfig{});
    probeCall(tracer, out, "routing.Router.route", "routing.route_s",
              [&](std::uint64_t) { (void)router.route(trace); });
    const LiveReplanServer server(model, one, ReplanConfig{});
    probeCall(tracer, out, "replan.LiveReplanServer.serve",
              "replan.serve_s",
              [&](std::uint64_t) { (void)server.serve(trace); });
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        {
            {"datagen.ns_per_lookup", "ns"},
            {"datagen.calls", "count"},
            {"profiler.profile_s", "s"},
            {"planner.solve_s", "s"},
            {"planner.est_bottleneck_ms", "ms"},
            {"planner.pinned_rows", "count"},
            {"remap.build_s", "s"},
            {"remap.tierof_ns", "ns"},
            {"remap.tierof_calls", "count"},
            {"tiering.access_frac.hbm", "frac"},
            {"tiering.access_frac.dram", "frac"},
            {"tiering.access_frac.ssd", "frac"},
            {"engine.hbm_accesses", "count"},
            {"engine.uvm_accesses", "count"},
            {"engine.replay_s", "s"},
            {"serving.execute_ns_per_lookup", "ns"},
            {"serving.execute_calls", "count"},
            {"serving.lru_touch_ns", "ns"},
            {"serving.lru_touch_calls", "count"},
            {"serving.cache_hit_rate", "frac"},
            {"serving.utilization", "frac"},
            {"overload.shed_frac", "frac"},
            {"overload.degraded_frac", "frac"},
            {"overload.max_node_outstanding", "count"},
            {"routing.trace_build_s", "s"},
            {"routing.trace_mb", "MB"},
            {"routing.route_s", "s"},
            {"routing.saturation_qps", "1/s"},
            {"routing.sla_qps", "1/s"},
            {"routing.hedge_rate", "frac"},
            {"routing.wasted_work_frac", "frac"},
            {"replan.observe_ns", "ns"},
            {"replan.observe_calls", "count"},
            {"replan.export_s", "s"},
            {"replan.assess_s", "s"},
            {"replan.serve_s", "s"},
            {"replan.replans_completed", "count"},
            {"replan.migrated_rows", "count"},
            {"replan.migration_steps", "count"},
            {"replan.shed_during_migration", "count"},
            {"trace.overhead_frac", "frac"},
            {"trace.spans", "count"},
        };
    return names;
}

void
completePerLayer(Metrics &metrics)
{
    Metrics complete;
    for (const auto &[name, unit] : perLayerMetricNames()) {
        const auto it = metrics.find(name);
        complete[name] = it != metrics.end() ? it->second
                                             : Metric{0.0, unit};
        complete[name].unit = unit;
    }
    for (const auto &[name, m] : metrics)
        if (!complete.count(name))
            std::cerr << "warning: per-layer metric " << name
                      << " is not in the published list\n";
    metrics = std::move(complete);
}

void
emitTrace(const RunOptions &opts, const Tracer &tracer,
          std::uint32_t first_pass, std::uint32_t last_pass,
          Metrics &out)
{
    std::cout << "\nper-layer self time (traced passes and probes):\n"
              << std::left << std::setw(40) << "span" << std::right
              << std::setw(8) << "calls" << std::setw(14) << "total_s"
              << std::setw(14) << "self_s" << "\n";
    for (const auto &[name, t] :
         tracer.selfTimes(first_pass, last_pass))
        std::cout << std::left << std::setw(40) << name << std::right
                  << std::setw(8) << t.calls << std::setw(14)
                  << std::fixed << std::setprecision(6)
                  << t.totalSeconds << std::setw(14) << t.selfSeconds
                  << std::defaultfloat << "\n";
    std::filesystem::create_directories(opts.outDir);
    const std::string path = opts.outDir + "/spans-" + opts.workload +
        "-" + std::to_string(opts.seed) + ".json";
    std::ofstream f(path);
    tracer.write(f);
    std::cout << "spans: " << tracer.spans().size() << " written to "
              << path << "\n";
    out["trace.spans"] = {static_cast<double>(tracer.spans().size()),
                          "count"};
}

} // namespace perfbench
