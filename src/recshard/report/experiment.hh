/**
 * @file
 * Shared experiment harness for the paper-reproduction benches.
 *
 * Evaluates the three state-of-the-art baselines and RecShard on an
 * RM model under the paper's 16-GPU system (Sections 5-6), with a
 * row-scale knob so the full pipeline runs on modest hosts. Results
 * are memoized in a small on-disk cache keyed by configuration so
 * every table/figure binary can re-print its view of the same runs
 * without recomputing them.
 */

#ifndef RECSHARD_REPORT_EXPERIMENT_HH
#define RECSHARD_REPORT_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/base/flags.hh"
#include "recshard/core/pipeline.hh"
#include "recshard/engine/execution.hh"
#include "recshard/serving/serving.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/** Configuration shared by all reproduction benches. */
struct ExperimentConfig
{
    double scale = 1.0 / 32.0;    //!< model + capacity row scale
    std::uint32_t gpus = 16;
    std::uint32_t batch = 4096;   //!< replay batch size
    std::uint32_t warmup = 1;
    std::uint32_t iters = 5;      //!< measured iterations
    std::uint64_t seed = 42;
    std::uint64_t profileSamples = 40000;
    std::string cacheDir = "recshard-bench-cache";
    bool noCache = false;

    /** Register the standard flags on a parser. */
    static void addFlags(FlagSet &flags);

    /** Read the standard flags back. */
    static ExperimentConfig fromFlags(const FlagSet &flags);

    /** Cache key for one (config, model, variant) evaluation. */
    std::string cacheKey(const std::string &model_name,
                         const std::string &variant) const;
};

/** Summary of one strategy's plan + replay on one model. */
struct StrategyResult
{
    std::string name;
    /** Per-EMB (gpu, hbmRows, hashSize) triples. */
    std::vector<std::uint32_t> gpu;
    std::vector<std::uint64_t> hbmRows;
    std::vector<std::uint64_t> hashSize;
    /** Per-GPU mean iteration seconds. */
    std::vector<double> gpuMeanTime;
    double meanBottleneckTime = 0.0;
    /** Per-GPU traffic totals over the measured window. */
    std::vector<GpuTraffic> traffic;
    std::uint32_t iterations = 0;

    double hbmAccessesPerGpuIter() const;
    double uvmAccessesPerGpuIter() const;
    double uvmAccessFraction() const;
    /** Total rows this strategy keeps in UVM. */
    std::uint64_t totalUvmRows() const;
};

/** Every evaluated strategy on one model. */
struct ModelEvaluation
{
    std::string modelName;
    /** In PlannerRegistry order; with only the built-ins that is
     *  Size-Based, Lookup-Based, Size-Based-Lookup, RecShard. */
    std::vector<StrategyResult> strategies;

    const StrategyResult &byName(const std::string &name) const;
};

/**
 * Evaluate every registered scalable planner (the registry's
 * baselines plus RecShard, plus anything externally registered) on
 * one RM ("rm1"/"rm2"/"rm3"), replaying identical traffic, with
 * disk memoization.
 */
ModelEvaluation evaluateModel(const ExperimentConfig &config,
                              const std::string &model_name);

/**
 * Evaluate the Section 6.5 ablation ladder (CDF only, +Coverage,
 * +Pooling, Full) of RecShard on one model. Not disk-memoized.
 */
ModelEvaluation evaluateAblation(const ExperimentConfig &config,
                                 const std::string &model_name);

/** Serving comparison of strategies on one model. */
struct ServingEvaluation
{
    std::string modelName;
    /** Same order as the plans evaluated (baselines + RecShard). */
    std::vector<ServingReport> strategies;

    const ServingReport &byName(const std::string &name) const;
};

/**
 * Evaluate the size-greedy baseline and RecShard under identical
 * online traffic on one RM ("rm1"/"rm2"/"rm3"). Serving runs are
 * not disk-memoized: the trace is cheap to regenerate relative to
 * plan solving, and the latency numbers depend on every serving
 * knob (a poor cache key).
 */
ServingEvaluation evaluateServing(const ExperimentConfig &config,
                                  const std::string &model_name,
                                  const ServingConfig &serving);

/** Routing-policy comparison on one model's cluster. */
struct RoutingEvaluation
{
    std::string modelName;
    /** Per-node plans actually deployed (for inspection). */
    std::vector<ShardingPlan> nodePlans;
    /** One report per (policy, hedging) combination. */
    std::vector<RoutingReport> policies;

    /** Lookup by RoutingReport::name ("round-robin",
     *  "locality-aware+hedge", ...). */
    const RoutingReport &byName(const std::string &name) const;
};

/**
 * Evaluate all three routing policies, each with and without
 * hedging, against one multi-node cluster serving identical routed
 * traffic on one RM ("rm1"/"rm2"/"rm3"). Six reports: the three
 * policies without hedging first, then the three with. Not
 * disk-memoized, for the same reason evaluateServing is not.
 */
RoutingEvaluation evaluateRouting(const ExperimentConfig &config,
                                  const std::string &model_name,
                                  const RoutingPhaseOptions &routing);

/** Overload-control comparison on one model's cluster. */
struct OverloadEvaluation
{
    std::string modelName;
    /** Measured cluster saturation arrival rate (queries/s); the
     *  load multipliers below are relative to it. */
    double saturationQps = 0.0;
    /** Mean per-query service time the saturation probe measured. */
    double meanServiceSeconds = 0.0;
    /** "admit-all", "reject", "degrade" — presentation order. */
    std::vector<std::string> modes;
    /** Arrival-rate multiples of saturationQps, ascending. */
    std::vector<double> loadMultipliers;
    /** reports[m][l]: modes[m] at loadMultipliers[l]; every report
     *  at one multiplier replays the identical trace. */
    std::vector<std::vector<RoutingReport>> reports;

    const RoutingReport &at(const std::string &mode,
                            double multiplier) const;
};

/**
 * The overload comparison: measure the cluster's saturation rate,
 * then route identical traces at each load multiplier under three
 * overload modes — "admit-all" (the uncontrolled baseline),
 * "reject" (the configured admission controller sheds; defaults to
 * "queue-threshold" when the routing config left admission at
 * admit-all), and "degrade" (same controller, but shed verdicts
 * serve at reduced fidelity instead). The queue-threshold bound is
 * derived from the SLA and the measured service time unless the
 * caller pinned one (deriveQueueBound), and the degrade mode
 * always runs with a brownout->blackout backstop — derived just
 * past the deepest tier threshold when the caller left
 * shedPressure 0 — because an unbounded pure-degrade column would
 * measure queue collapse, not degradation, on bursty traces. Not
 * disk-memoized, for the same reason evaluateServing is not.
 */
OverloadEvaluation
evaluateOverload(const ExperimentConfig &config,
                 const std::string &model_name,
                 const RoutingPhaseOptions &routing,
                 const std::vector<double> &load_multipliers =
                     {1.0, 1.5, 2.5});

/** Static-plan vs. live-replanning comparison on one cluster. */
struct ReplanEvaluation
{
    std::string modelName;
    /** Measured cluster saturation arrival rate (queries/s). */
    double saturationQps = 0.0;
    /** Arrival rate the drifting trace was generated at. */
    double offeredQps = 0.0;
    /** The incumbent plans held fixed for the whole trace. */
    ReplanReport staticPlan;
    /** The same trace with the feedback loop closed. */
    ReplanReport liveReplan;
};

/**
 * The replanning comparison: solve one cluster from planning-time
 * profiles, measure its saturation rate, then serve one *drifting*
 * trace (popularity churns month by month under `drift`) twice
 * through the LiveReplanServer — once with replanning disabled
 * (static baseline) and once enabled. Identical trace, identical
 * initial plans; every difference is attributable to the feedback
 * loop. The trace is generated at `load_fraction` x saturation so
 * nodes have idle gaps for migration steps to run in — at or past
 * saturation there is no spare capacity to migrate with (or
 * against: admission is what sheds there, not migration). Not
 * disk-memoized, for the same reason evaluateServing is not.
 */
ReplanEvaluation
evaluateReplan(const ExperimentConfig &config,
               const std::string &model_name,
               const ReplanPhaseOptions &options,
               const DriftModel &drift,
               double load_fraction = 0.65);

/** The paper's headline numbers for side-by-side printing. */
namespace paper {

/** Table 3 (ms): min/max/mean/stddev per model per strategy. */
struct Table3Row
{
    const char *model;
    const char *strategy;
    double min, max, mean, stddev;
};
extern const Table3Row kTable3[12];

/** Table 5 per-GPU per-iteration access counts. */
struct Table5Row
{
    const char *model;
    const char *strategy;
    double hbm, uvm;
};
extern const Table5Row kTable5[12];

} // namespace paper

} // namespace recshard

#endif // RECSHARD_REPORT_EXPERIMENT_HH
