/**
 * @file
 * Workload "train-rm": the paper's own experiment. A
 * capacity-constrained RM3 (397 EMBs) is profiled, sharded by
 * `recshard` and by the `greedy-size` baseline on the paper's
 * 16-GPU two-tier node, and both plans replay identical batches.
 * The planner and the engine do nearly all the work; serving,
 * routing and replanning do none.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/planner/registry.hh"
#include "recshard/routing/trace.hh"
#include "workloads.hh"

using namespace recshard;

namespace perfbench {

namespace {

constexpr double kRowScale = 1.0 / 32.0;
constexpr std::uint32_t kGpus = 16;
constexpr std::uint64_t kProfileSamples = 4096;
constexpr std::uint32_t kBatch = 256;
/** Iterations replayed per pass, one replay() call each, so the
 *  per-iteration bottleneck times give a latency distribution. */
constexpr std::uint32_t kIterations = 24;
constexpr std::uint32_t kSetupRepeats = 3;
constexpr std::uint32_t kMinPasses = 4;

struct Setup
{
    ModelSpec model;
    std::unique_ptr<SyntheticDataset> data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
};

std::unique_ptr<Setup>
buildSetup(std::uint64_t seed, Tracer &tracer)
{
    auto s = std::make_unique<Setup>();
    s->model = makeRm3(kRowScale);
    s->data = std::make_unique<SyntheticDataset>(s->model, seed);
    s->system = SystemSpec::paper(kGpus, kRowScale);
    const SyntheticDataset planning(s->model, kPlanningSeed);
    auto span = tracer.span("profiler.profileDataset");
    s->profiles = profileDataset(planning, kProfileSamples);
    return s;
}

/** What one pass leaves behind for the checks and probes. */
struct PassState
{
    PlanResult recshard;
    PlanResult baseline;
    std::vector<std::vector<TierResolver>> resolvers;
};

} // namespace

RunReport
runTrainRm(const RunOptions &opts)
{
    RunReport rep;
    Tracer tracer(opts.trace);
    Checks &checks = rep.checks;

    std::unique_ptr<Setup> setup;
    const double setup_s = medianSetupSeconds(
        opts.trace ? 1 : kSetupRepeats, [&] {
            setup.reset();
            setup = buildSetup(opts.seed, tracer);
        });
    const Setup &s = *setup;

    const auto recshard = PlannerRegistry::create("recshard");
    const auto greedy = PlannerRegistry::create("greedy-size");
    const PlanRequest req =
        PlanRequest::make(s.model, s.profiles, s.system, kBatch);
    const ExecutionEngine engine(*s.data, s.system,
                                 EmbCostModel(s.system));

    PassState last;
    Percentile p99;
    std::uint64_t lookups = 0;
    const PassSeries series = runPasses(
        opts.seconds, kMinPasses, [&](std::uint32_t n) {
            tracer.beginPass(n);
            PassSample p;
            PassState st;
            Clock::time_point t0 = Clock::now();
            {
                auto span = tracer.span("planner.plan.recshard");
                st.recshard = recshard->plan(req);
            }
            p.hostSeconds["plan"] = secondsSince(t0);
            {
                auto span = tracer.span("planner.plan.greedy-size");
                st.baseline = greedy->plan(req);
            }
            {
                auto span = tracer.span("remap.buildResolvers");
                st.resolvers.push_back(ExecutionEngine::buildResolvers(
                    s.model, st.recshard.plan, s.profiles));
                st.resolvers.push_back(ExecutionEngine::buildResolvers(
                    s.model, st.baseline.plan, s.profiles));
            }

            std::vector<double> bottleneck[2];
            std::vector<double> gpu_time(kGpus, 0.0);
            std::uint64_t hbm = 0, uvm = 0, pass_lookups = 0;
            t0 = Clock::now();
            for (std::uint32_t i = 0; i < kIterations; ++i) {
                ReplayConfig rc;
                rc.batchSize = kBatch;
                rc.warmupIterations = 0;
                rc.measureIterations = 1;
                rc.firstBatchIndex = i;
                std::vector<ReplayResult> r;
                {
                    auto span = tracer.span("engine.replay");
                    r = engine.replay({&st.recshard.plan,
                                       &st.baseline.plan},
                                      st.resolvers, rc);
                }
                for (int k = 0; k < 2; ++k) {
                    bottleneck[k].push_back(r[k].meanBottleneckTime);
                    for (const GpuTraffic &t : r[k].traffic)
                        pass_lookups += t.hbmAccesses + t.uvmAccesses;
                }
                for (std::uint32_t g = 0; g < kGpus; ++g) {
                    gpu_time[g] += r[0].gpuMeanTime[g];
                    hbm += r[0].traffic[g].hbmAccesses;
                    uvm += r[0].traffic[g].uvmAccesses;
                }
            }
            p.hostSeconds["main"] = secondsSince(t0);
            lookups = pass_lookups;

            const auto mean = [](const std::vector<double> &xs) {
                double sum = 0.0;
                for (const double x : xs)
                    sum += x;
                return sum / static_cast<double>(xs.size());
            };
            const Percentile p50 = percentile(bottleneck[0], 0.50);
            p99 = percentile(bottleneck[0], 0.99);
            const double gpu_max =
                *std::max_element(gpu_time.begin(), gpu_time.end());
            auto &v = p.virtuals;
            v["virt_p50_us"] = p50.value * 1e6;
            v["virt_p99_us"] = p99.value * 1e6;
            v["train_samples_per_s"] = kBatch / mean(bottleneck[0]);
            v["train_speedup"] =
                mean(bottleneck[1]) / mean(bottleneck[0]);
            v["gpu_imbalance"] = gpu_max / (mean(gpu_time));
            v["uvm_access_frac"] = static_cast<double>(uvm) /
                static_cast<double>(hbm + uvm);
            v["engine.hbm_accesses"] = static_cast<double>(hbm);
            v["engine.uvm_accesses"] = static_cast<double>(uvm);
            v["planner.est_bottleneck_ms"] =
                st.recshard.diag.bottleneckCost * 1e3;
            std::uint64_t pinned = 0;
            for (const EmbPlacement &e : st.recshard.plan.tables)
                pinned += e.hbmRows;
            v["planner.pinned_rows"] = static_cast<double>(pinned);
            last = std::move(st);
            return p;
        });

    // ------------------------------------------------------ checks
    for (const PlanResult *r : {&last.recshard, &last.baseline}) {
        checks.expect(r->diag.feasible,
                      r->diag.planner + " plan is infeasible");
        r->plan.validate(s.model, s.system); // aborts the run on failure
    }
    checkVirtualsRepeat(series, checks);
    const auto &v = series.warmup.virtuals;
    checks.expect(v.at("train_speedup") >= 1.0,
                  "recshard is slower than greedy-size");

    std::cout << "train-rm: " << series.timed.size()
              << " timed passes; " << kIterations << " iterations x "
              << kBatch << " samples x 2 plans per pass\n";
    for (const char *name :
         {"train_samples_per_s", "train_speedup", "gpu_imbalance",
          "uvm_access_frac", "virt_p50_us", "virt_p99_us"})
        std::cout << "metric " << name << " " << v.at(name) << "\n";
    std::cout << "latency sample: " << p99.count
              << " iterations per pass; p99 has " << p99.beyond
              << " beyond it\n";

    if (!opts.trace) {
        printWindows(std::cout, "plan_s", series.windows("plan"));
        printWindows(std::cout, "lookups_per_s", series.windows("main"));
        Metrics &m = rep.metrics;
        m["setup_s"] = {setup_s, "s"};
        m["plan_s"] = {series.medianHost("plan"), "s"};
        m["lookups_per_s"] = {
            static_cast<double>(lookups) / series.medianHost("main"),
            "1/s"};
        m["peak_rss_mb"] = {peakRssMb(), "MB"};
        m["uvm_access_frac"] = {v.at("uvm_access_frac"), "frac"};
        m["virt_p50_us"] = {v.at("virt_p50_us"), "us"};
        m["virt_p99_us"] = {v.at("virt_p99_us"), "us"};
        m["goodput_per_s"] = {v.at("train_samples_per_s"), "1/s"};
        return rep;
    }

    // ------------------------------------------------ traced run only
    Metrics &m = rep.metrics;
    const std::uint32_t last_pass =
        static_cast<std::uint32_t>(series.timed.size());
    const auto self = tracer.selfTimes(1, last_pass);
    // Per call: one iteration of both plans, as the passes replay it.
    m["engine.replay_s"] = {
        self.at("engine.replay").perCallSeconds(), "s"};
    tracer.beginProbes(last_pass + 1);
    RoutedTrace probe_trace;
    {
        // Training has no query stream of its own; the probes read
        // rows from queries drawn out of the same dataset.
        LoadConfig load;
        load.seed = opts.seed ^ 0x7a1eULL;
        const double rss0 = currentRssMb();
        const Clock::time_point t0 = Clock::now();
        {
            auto span = tracer.span("routing.materializeRoutedTrace");
            probe_trace = materializeRoutedTrace(*s.data, load, 400);
        }
        m["routing.trace_build_s"] = {secondsSince(t0), "s"};
        m["routing.trace_mb"] = {currentRssMb() - rss0, "MB"};
    }
    ProbeInputs in;
    in.data = s.data.get();
    in.trace = &probe_trace;
    in.plan = &last.recshard.plan;
    in.resolvers = &last.resolvers[0];
    in.system = s.system;
    runLayerProbes(in, tracer, m);

    m["trace.overhead_frac"] = {
        tracingOverhead(series, static_cast<double>(lookups)), "frac"};
    m["profiler.profile_s"] = {
        tracer.selfTimes(0, 0).at("profiler.profileDataset")
            .totalSeconds, "s"};
    m["planner.solve_s"] = {
        self.at("planner.plan.recshard").perCallSeconds(), "s"};
    m["remap.build_s"] = {
        self.at("remap.buildResolvers").perCallSeconds(), "s"};
    for (const char *name :
         {"planner.pinned_rows", "engine.hbm_accesses",
          "engine.uvm_accesses"})
        m[name] = {v.at(name), "count"};
    m["planner.est_bottleneck_ms"] = {v.at("planner.est_bottleneck_ms"),
                                      "ms"};
    emitTrace(opts, tracer, 0, last_pass + 1, m);
    completePerLayer(m);
    return rep;
}

} // namespace perfbench
