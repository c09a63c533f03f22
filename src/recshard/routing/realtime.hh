/**
 * @file
 * Real-threads serving backend — the wall-clock twin of the
 * virtual-time Router.
 *
 * The DES Router (router.hh) is the repo's source of truth for
 * *what* gets served: which node takes each query, which queries
 * are shed, and at which fidelity tier the survivors run. It is
 * single-threaded and deterministic, which makes it ideal for
 * reproducing the paper's cost-model claims — and useless for
 * answering "how fast does this plan actually run on hardware?".
 * The RealTimeExecutor answers that question: the same RoutedTrace
 * and the same per-node plans, but dispatched through lock-free
 * MPSC admission queues (mpsc_queue.hh) to per-core node worker
 * threads that execute the contiguous-prefix CSR dispatch for real
 * and record wall-clock latencies into per-thread ServingMetrics
 * shards (serving/metrics.hh).
 *
 * The deterministic twin decides: a DES run records one
 * RouteDecision per query (node, shed, tier, kept candidates);
 * ingest threads replay that decision stream into the node queues
 * and the workers execute it on real cores. Because each node's
 * queue receives its queries in arrival order and each node's
 * ShardServerPool is driven by exactly one worker, per-server
 * execution order — and therefore every LRU cache hit and every
 * HBM/UVM access count — is identical to the DES's. The
 * differential test tier (tests/realtime_differential_test.cc)
 * holds the two backends to byte-equal conservation and fidelity
 * ledgers; only the latency axis (virtual vs. wall-clock) may
 * differ.
 *
 * What stays DES-only: request hedging (a latency-domain mechanism
 * whose virtual-time accounting has no wall-clock counterpart
 * here), and bit-identical latency percentiles. See
 * docs/ARCHITECTURE.md, "The real-time twin".
 */

#ifndef RECSHARD_ROUTING_REALTIME_HH
#define RECSHARD_ROUTING_REALTIME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/routing/router.hh"
#include "recshard/serving/metrics.hh"

namespace recshard {

/** Real-time backend controls. */
struct RealTimeConfig
{
    /**
     * Policy, overload, per-node server knobs, and SLA — shared
     * with the DES so both backends serve the same configuration.
     * hedge.enabled must be false (hedging is DES-only).
     */
    RouterConfig router;
    /** Execution mode; "mirror" (DES-decided) is the only one. */
    std::string mode = "mirror";
    /**
     * Node worker threads; 0 auto-detects
     * min(nodes, max(1, hardware_concurrency - 1)) so the backend
     * degrades gracefully on small CI runners. When fewer workers
     * than nodes, each worker owns the nodes with
     * node % workers == worker and drains them round-robin; every
     * node is still executed by exactly one thread, so per-node
     * determinism is unaffected.
     */
    std::uint32_t workerThreads = 0;
    /**
     * Ingest (producer) threads; 0 auto-detects 1. Producers
     * partition the *node space* (producer p feeds nodes with
     * node % producers == p), preserving each queue's arrival
     * order; extras beyond the node count would idle and are
     * dropped.
     */
    std::uint32_t producerThreads = 0;
};

/**
 * The ledgers both backends must agree on: work conservation
 * (offered == full + degraded + shed), the candidate-quality
 * (fidelity) ledger, and tier traffic including cache hits.
 * Wall-clock-dependent fields (latencies, QPS) are deliberately
 * excluded.
 */
struct ServingLedger
{
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::uint64_t full = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t offeredCandidates = 0;
    std::uint64_t servedCandidates = 0;
    std::vector<std::uint64_t> tierQueries;
    std::vector<double> tierCandidateFraction;
    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
};

bool operator==(const ServingLedger &a, const ServingLedger &b);
inline bool
operator!=(const ServingLedger &a, const ServingLedger &b)
{
    return !(a == b);
}

/** Multi-line field-by-field rendering (test failure messages). */
std::string describeLedger(const ServingLedger &ledger);

/** One real-time run's measurements. */
struct RealTimeReport
{
    /** "realtime+mirror+locality-aware+adaptive+degrade", ... */
    std::string name;
    std::uint32_t nodes = 0;
    std::uint32_t workerThreads = 0;
    std::uint32_t producerThreads = 0;

    /** Conservation + fidelity ledgers (byte-equal to the DES's). */
    ServingLedger ledger;

    /**
     * Wall-clock measurements, reduced from the per-thread
     * ServingMetrics shards: served-only latency percentiles,
     * goodput, cache rates. Arrival = the moment the producer
     * enqueued the query, so latency covers queue wait + real
     * execution under open-loop (saturation) offered load.
     */
    ServingReport wall;
    /** First enqueue to last worker exit, seconds. */
    double wallSeconds = 0.0;
    /** Served queries per wall second — the sustained rate. */
    double sustainedQps = 0.0;
    /** Embedding-row lookups actually executed (degraded queries
     *  count only their kept prefix). */
    std::uint64_t executedLookups = 0;
    /** executedLookups per wall second — the throughput-ceiling
     *  number the bench's floor is written against. */
    double lookupsPerSecond = 0.0;
};

/** The backend-shared ledger of a DES report. */
ServingLedger ledgerOf(const RoutingReport &report);
/** The backend-shared ledger of a real-time report. */
inline const ServingLedger &
ledgerOf(const RealTimeReport &report)
{
    return report.ledger;
}

/** Real-threads executor over an immutable cluster. */
class RealTimeExecutor
{
  public:
    /**
     * @param model   Model the cluster serves.
     * @param cluster Per-node plans + resolvers (borrowed; must
     *                outlive the executor).
     * @param config  Mode, thread counts, and the shared
     *                RouterConfig (validated here; a mode other
     *                than "mirror" and hedging are rejected).
     */
    RealTimeExecutor(const ModelSpec &model,
                     const RoutingCluster &cluster,
                     RealTimeConfig config);

    /**
     * Serve a trace to completion on real threads and report. All
     * node state (queues, pools, caches, counters) is rebuilt per
     * call. This first runs the DES twin to record the decision
     * stream; use the two-argument overload to reuse a stream
     * across runs.
     */
    RealTimeReport run(const RoutedTrace &trace) const;

    /**
     * Run replaying a pre-recorded decision stream (one
     * RouteDecision per query, as produced by
     * Router::route(trace, &decisions)). Fatal, before any thread
     * starts, on a size mismatch or on a decision naming a node
     * outside the cluster, or (unless shed) a tier outside the
     * degradation policy or more candidates than its query has.
     */
    RealTimeReport
    run(const RoutedTrace &trace,
        const std::vector<RouteDecision> &decisions) const;

    const RealTimeConfig &config() const { return cfg; }
    /** Worker threads a run will actually use (auto-detection
     *  resolved). */
    std::uint32_t resolvedWorkerThreads() const;
    /** Producer threads a run will actually use. */
    std::uint32_t resolvedProducerThreads() const;

  private:
    const ModelSpec &model;
    const RoutingCluster &cluster;
    RealTimeConfig cfg;
};

} // namespace recshard

#endif // RECSHARD_ROUTING_REALTIME_HH
