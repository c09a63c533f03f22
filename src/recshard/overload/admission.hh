/**
 * @file
 * Router admission control: decide, per arriving query, whether the
 * cluster should accept more work.
 *
 * The routing tier (routing/router.hh) historically admitted every
 * query unconditionally; past saturation that only grows queues, so
 * tail latency and SLA numbers stop meaning anything — queries are
 * "served" seconds after their answer stopped mattering. Admission
 * control converts that queueing collapse into an explicit policy
 * decision at arrival time, made *after* node selection so the
 * verdict reflects the node that would actually absorb the query:
 *
 *   "admit-all"        -- the historical behavior; never sheds.
 *   "queue-threshold"  -- shed once the picked node already holds a
 *                         configurable number of outstanding
 *                         (queued + running) queries. The classic
 *                         static bound: simple, predictable, and a
 *                         hard queue-delay cap of roughly
 *                         maxOutstanding x service time.
 *   "adaptive"         -- CoDel-style delay control (Nichols &
 *                         Jacobson): instead of bounding queue
 *                         *length*, bound queue *delay* against an
 *                         SLA-derived target. The controller tracks
 *                         each node's observed per-query queueing
 *                         delay and service time (EWMA) and sheds
 *                         when the picked node's predicted queue
 *                         delay — outstanding x estimated service
 *                         time — exceeds the target. Acting on
 *                         predicted delay at admission (rather than
 *                         textbook CoDel's dequeue-time sojourn
 *                         drops) keeps the shed rate proportional
 *                         to overload at any arrival rate, and the
 *                         bound adapts to heterogeneous nodes and
 *                         drifting service times where a static
 *                         queue-length threshold cannot.
 *
 * Every verdict also carries a *pressure* signal (0 idle, >= 1
 * overloaded) consumed by degraded-mode serving (degradation.hh):
 * instead of shedding outright, the router can shrink the query's
 * ranking-candidate count by a pressure-selected tier.
 *
 * Controllers are selected by name, the same way planners and cache
 * admission policies are, so the pipeline, report harness, and
 * benches can sweep them uniformly. All state is updated from the
 * serving kernel's single-threaded virtual-time loop; controllers
 * never see wall-clock time, so verdicts are deterministic. The
 * real-time backend (routing/realtime.hh) never consults one: it
 * replays the verdicts the DES already made. Controllers are
 * therefore not thread-safe.
 */

#ifndef RECSHARD_OVERLOAD_ADMISSION_HH
#define RECSHARD_OVERLOAD_ADMISSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace recshard {

/** Admission-controller selection and knobs for one Router run. */
struct AdmissionConfig
{
    /** "admit-all", "queue-threshold", or "adaptive". */
    std::string policy = "admit-all";
    /**
     * "queue-threshold": shed when the picked node already has this
     * many outstanding (queued + running) queries. Selecting
     * queue-threshold requires an explicit positive bound; the
     * default 0 means "unset", which the bench and report harness
     * replace with deriveQueueBound() (SLA-derived) before the
     * Router sees it.
     */
    std::uint64_t maxOutstanding = 0;
    /**
     * "adaptive": queue-delay target the controller defends.
     * 0 derives it from the router's SLA (slaSeconds / 2 — half the
     * budget for queueing, half for service and jitter).
     */
    double targetDelaySeconds = 0.0;
    /**
     * "adaptive": EWMA smoothing for the per-node service-time
     * estimate, in (0, 1]; higher adapts faster.
     */
    double serviceAlpha = 0.1;
};

/** One arrival's admission decision. */
struct AdmissionVerdict
{
    /** Accept the query (at full fidelity unless degraded). */
    bool admit = true;
    /**
     * Load pressure at the decision point: 0 on an idle node,
     * crossing 1.0 exactly where the controller starts shedding
     * ("queue-threshold": outstanding / maxOutstanding; "adaptive":
     * predicted queue delay / target; "admit-all": always 0).
     * DegradationPolicy maps this to a fidelity tier.
     */
    double pressure = 0.0;
};

/**
 * Decides, per arriving query, whether the picked node may take it.
 * One instance per Router::route() call; all methods are invoked
 * from the router's event loop in virtual-time order.
 */
class AdmissionController
{
  public:
    virtual ~AdmissionController() = default;

    /**
     * Verdict for a query arriving at virtual time `now` that the
     * routing policy assigned to `node`.
     *
     * @param now         Arrival (virtual) time.
     * @param node        Picked node's index.
     * @param outstanding Picked node's queued + running queries.
     */
    [[nodiscard]] virtual AdmissionVerdict
    decide(double now, std::uint32_t node,
           std::uint64_t outstanding) = 0;

    /**
     * Observe one dispatch on `node`: the query waited `queue_delay`
     * seconds and will occupy the node for `service_seconds`.
     * Called by the router at every dispatch (hedge copies
     * included — they load the node all the same).
     */
    virtual void observeDispatch(std::uint32_t /*node*/,
                                 double /*now*/,
                                 double /*queue_delay*/,
                                 double /*service_seconds*/)
    {
    }

    /** Policy name this instance was created under. */
    virtual const char *name() const = 0;
};

/**
 * Build one controller by name.
 *
 * @param config      Policy name and knobs (validated; fatal on an
 *                    unknown name or out-of-range knob).
 * @param num_nodes   Nodes in the cluster (per-node state arity).
 * @param sla_seconds Router's latency SLA; derives the "adaptive"
 *                    delay target when the config leaves it 0.
 */
std::unique_ptr<AdmissionController>
makeAdmissionController(const AdmissionConfig &config,
                        std::uint32_t num_nodes,
                        double sla_seconds);

/** Registered controller names, in documentation order. */
const std::vector<std::string> &admissionControllerNames();

/**
 * SLA-derived queue-threshold bound: spend about a third of the
 * SLA budget on full-fidelity queueing (bound x service ~= sla/3).
 * Degrade mode's backstop tolerates shedPressure x bound
 * outstanding, and a burst-onset queue that deep still holds
 * mostly shallow-tier (near-full-cost) queries, so a laxer split
 * would drag the served p99 past the SLA exactly where overload
 * control is scored. bench_overload_control, bench_replan_drift
 * and perfbench's serving workload all derive their bound here.
 */
std::uint64_t deriveQueueBound(double sla_seconds,
                               double mean_service_seconds);

} // namespace recshard

#endif // RECSHARD_OVERLOAD_ADMISSION_HH
