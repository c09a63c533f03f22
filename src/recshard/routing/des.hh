/**
 * @file
 * The virtual-time serving kernel: the one discrete-event loop that
 * Router (routing/router.hh) and LiveReplanServer (replan/live.hh)
 * run on.
 *
 * The kernel owns per-run ServingNodes, node picking, admission and
 * degradation, one event queue ordered by (virtual time, insertion
 * sequence), dispatch with the degraded CSR prefix, and completion
 * bookkeeping: latencies, the hbm/uvm/cache, fidelity-tier and
 * candidate ledgers, and the stranded-query and conservation checks.
 * Its own events are Arrival (pick a node, then shed, or admit at a
 * tier, enqueue and try to dispatch) and Completion (the first
 * finishing copy defines the latency; a later copy is wasted work).
 *
 * A serving loop derives from ServingKernel and reacts through the
 * protected hooks, each called at most once per event, never per
 * lookup. Router adds HedgeFire; LiveReplanServer adds
 * MigrationKick and MigrationFinish. Every event takes the next
 * sequence number, so a fixed (cluster, trace, config) replays the
 * identical event order. See docs/ARCHITECTURE.md, "The
 * virtual-time determinism contract".
 */

#ifndef RECSHARD_ROUTING_DES_HH
#define RECSHARD_ROUTING_DES_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "recshard/overload/degradation.hh"
#include "recshard/routing/cluster.hh"
#include "recshard/routing/policy.hh"
#include "recshard/routing/trace.hh"
#include "recshard/serving/metrics.hh"
#include "recshard/serving/node.hh"

namespace recshard {

/**
 * Fixed-capacity ring buffer of the most recent latency samples —
 * the sliding window the hedge-delay quantile is computed over.
 * Once full, each push overwrites the *oldest* sample, so the
 * buffer always holds exactly the last `capacity` observations.
 */
class LatencyWindow
{
  public:
    /** @param capacity Samples retained; must be >= 1. */
    explicit LatencyWindow(std::uint64_t capacity);

    /** Record one latency, displacing the oldest when full. */
    void push(double latency);

    /**
     * Quantile q in [0,1] over the current contents, interpolated
     * exactly as percentile() (base/stats.hh) and bit-identical to
     * it. Selects the two bracketing order statistics on a local
     * copy instead of sorting it, so a hedge refresh costs O(n)
     * and concurrent const calls stay safe.
     */
    double quantile(double q) const;

    /** Current contents (ring order, not age order). */
    const std::vector<double> &samples() const { return buf; }

    /** Samples pushed over the window's lifetime (resets included
     *  — reset() zeroes it). */
    std::uint64_t pushed() const { return count; }

    /**
     * Forget every sample; capacity is preserved. Epoch-windowed
     * consumers (replan/live.hh) reset at each epoch boundary so a
     * quantile covers exactly one epoch's observations.
     */
    void reset()
    {
        buf.clear();
        count = 0;
    }

  private:
    std::uint64_t cap;
    std::uint64_t count = 0;
    std::vector<double> buf;
};

/** Node index meaning "no node". */
constexpr std::uint32_t kNoNode = 0xffffffffu;

/**
 * One query's routing + admission outcome, recorded by the DES as
 * it routes. This is the hand-off between the deterministic twin
 * and the real-threads backend (routing/realtime.hh): the DES
 * *decides* (node, shed-or-serve, fidelity tier), the
 * RealTimeExecutor *executes* those decisions on real cores, and
 * the differential test tier holds the two to identical ledgers.
 */
struct RouteDecision
{
    /** Primary node the policy picked (hedge copies excluded). */
    std::uint32_t node = 0;
    /** Rejected at admission; tier/keptSamples are meaningless. */
    bool shed = false;
    /** Fidelity tier assigned at admission (0 = full). */
    std::uint32_t tier = 0;
    /** Ranking candidates actually served. */
    std::uint32_t keptSamples = 0;
};

/** One serving run's event loop; derive to add event kinds. */
class ServingKernel
{
  public:
    enum class EventKind {
        Arrival,
        Completion,
        HedgeFire,       //!< Router
        MigrationKick,   //!< LiveReplanServer
        MigrationFinish, //!< LiveReplanServer
    };

    struct Event
    {
        double time = 0.0;
        std::uint64_t seq = 0; //!< insertion order, breaks time ties
        EventKind kind = EventKind::Arrival;
        std::uint64_t query = 0;
        std::uint32_t node = kNoNode;
        double serviceSeconds = 0.0; //!< Completion only
    };

    /** The query's admission outcome, fixed at arrival (so every
     *  copy serves the same candidates), plus its progress. */
    struct QueryState : RouteDecision
    {
        bool started = false; //!< some copy entered service
        bool done = false;    //!< first copy completed
    };

    /**
     * Fresh per-run node state. `plans` and `resolvers` are
     * borrowed; a plan may be reassigned in place, followed by
     * repointLocality(). `trace` must be non-empty. The remaining
     * arguments are the RouterConfig / ReplanConfig fields of the
     * same names.
     */
    ServingKernel(const ModelSpec &model,
                  const RoutingCluster &cluster,
                  const std::vector<ShardingPlan> &plans,
                  const std::vector<std::vector<TierResolver>>
                      &resolvers,
                  const RoutedTrace &trace, RoutingPolicy policy,
                  double localityLoadPenalty,
                  const OverloadConfig &overload,
                  const ShardServerConfig &server,
                  double slaSeconds);
    virtual ~ServingKernel() = default;
    /** Not copyable or movable: `picker` borrows `index`. */
    ServingKernel(const ServingKernel &) = delete;
    ServingKernel &operator=(const ServingKernel &) = delete;

    /** Drain every event, then panic on a stranded query or on
     *  served + shed != offered. */
    void run();

    /** The fields every serving report shares: counts, duration,
     *  qps, goodput, latency summary and tier traffic. */
    template <class Report>
    void fillTotals(Report &r) const;

  protected:
    /** May node n start a query now? */
    virtual bool mayDispatch(std::uint32_t) const { return true; }
    /** A query entered service; its Completion is pushed next. */
    virtual void onDispatch(std::uint32_t /*node*/,
                            std::uint64_t /*query*/,
                            const NodeDispatch &)
    {
    }
    /** An arrival was shed or admitted (see state[query].shed). */
    virtual void onArrival(std::uint64_t /*query*/,
                           std::uint32_t /*node*/, double /*now*/)
    {
    }
    /** The first copy of e.query completed after `latency`. */
    virtual void onServed(const Event &, double /*latency*/) {}
    /** After a completion freed a node and its next query was
     *  offered dispatch. */
    virtual void afterCompletion(std::uint32_t /*node*/,
                                 double /*now*/)
    {
    }
    /** An event of a kind the kernel does not own. */
    virtual void onEvent(const Event &e) = 0;

    void schedule(double time, EventKind kind, std::uint64_t query,
                  std::uint32_t node, double serviceSeconds = 0.0);
    /** Queue a query on node n, tracking peak outstanding. */
    void enqueue(std::uint32_t n, std::uint64_t query);
    /** Start node n's head-of-line query if the node is free. */
    void tryDispatch(std::uint32_t n, double now);
    /** Re-aim node picking after a plan was reassigned. */
    void repointLocality();

    const ModelSpec &model;
    const RoutingCluster &cluster;
    const RoutedTrace &trace;
    const std::vector<ShardingPlan> &plans;
    std::vector<ServingNode> nodes;
    LocalityIndex index;
    NodePicker picker; //!< borrows `index`
    const std::unique_ptr<AdmissionController> admission;
    const DegradationPolicy degrade;
    const double sla;

    std::vector<QueryState> state;
    std::vector<double> latencies; //!< served, in completion order
    const double firstArrival;
    double lastFinish;
    std::uint64_t shed = 0;
    std::uint64_t maxOutstanding = 0;
    /** Service of copies completing after their query was served. */
    double wastedSeconds = 0.0;
    std::uint64_t hbm = 0, uvm = 0, cacheHits = 0;
    std::vector<double> nodeBusySeconds;
    std::uint64_t offeredCandidates = 0, servedCandidates = 0;
    std::vector<std::uint64_t> tierQueries;
    std::vector<std::uint64_t> tierOfferedCandidates;
    std::vector<std::uint64_t> tierServedCandidates;

  private:
    void arrive(const Event &e);
    void complete(const Event &e);

    struct EventLater
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.time != b.time ? a.time > b.time
                                    : a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, EventLater> events;
    std::uint64_t seq = 0;
    std::vector<std::uint32_t> prefix; //!< dispatch scratch
};

template <class Report>
void
ServingKernel::fillTotals(Report &r) const
{
    const LatencySummary lat = summarizeLatencies(latencies, sla);
    r.queries = trace.queries.size();
    r.slaSeconds = sla;
    r.servedQueries = lat.count;
    r.shedQueries = shed;
    r.goodQueries = lat.count - lat.violations;
    r.meanLatency = lat.mean;
    r.p50Latency = lat.p50;
    r.p95Latency = lat.p95;
    r.p99Latency = lat.p99;
    r.maxLatency = lat.max;
    r.slaViolationRate = lat.violationRate;

    r.hbmAccesses = hbm;
    r.uvmAccesses = uvm;
    r.cacheHits = cacheHits;
    const std::uint64_t accesses = hbm + uvm + cacheHits;
    r.uvmAccessFraction = accesses
        ? static_cast<double>(uvm) / static_cast<double>(accesses)
        : 0.0;

    r.durationSeconds = lastFinish - firstArrival;
    if (r.durationSeconds > 0.0) {
        r.qps = static_cast<double>(r.servedQueries) /
            r.durationSeconds;
        r.goodput = static_cast<double>(r.goodQueries) /
            r.durationSeconds;
    }
}

} // namespace recshard

#endif // RECSHARD_ROUTING_DES_HH
