#include "recshard/routing/realtime.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "recshard/base/logging.hh"
#include "recshard/routing/mpsc_queue.hh"

namespace recshard {

namespace {

/** One admitted query in a node's admission queue. */
struct QueueItem
{
    std::uint64_t id = 0;
    std::uint32_t tier = 0;
    std::uint32_t kept = 0;
    /** Wall seconds (since run start) the producer enqueued it —
     *  the arrival timestamp wall latency is measured from. */
    double enqueueSeconds = 0.0;
};

/**
 * One node's runtime state. The queue is the producer/worker
 * hand-off; the pool is owned by the single worker thread that
 * drives this node, so its caches and virtual clocks never race.
 */
struct NodeRuntime
{
    NodeRuntime(const ModelSpec &model, const ShardingPlan &plan,
                const std::vector<TierResolver> &resolvers,
                const SystemSpec &system,
                const ShardServerConfig &config)
        : pool(model, plan, resolvers, system, config)
    {
    }

    MpscQueue<QueueItem> queue;
    ShardServerPool pool;
};

/** Worker-thread-local slice of the conservation/fidelity ledger. */
struct WorkerLedger
{
    explicit WorkerLedger(std::uint32_t tiers)
        : tierQueries(tiers, 0), tierOfferedCand(tiers, 0),
          tierServedCand(tiers, 0)
    {
    }

    std::vector<std::uint64_t> tierQueries;
    std::vector<std::uint64_t> tierOfferedCand;
    std::vector<std::uint64_t> tierServedCand;
    std::uint64_t hbm = 0;
    std::uint64_t uvm = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t executedLookups = 0;
};

/** Producer-thread-local shed accounting. */
struct ProducerLedger
{
    std::uint64_t shed = 0;
    std::uint64_t shedOfferedCand = 0;
};

} // namespace

bool
operator==(const ServingLedger &a, const ServingLedger &b)
{
    return a.offered == b.offered && a.served == b.served &&
        a.full == b.full && a.degraded == b.degraded &&
        a.shed == b.shed &&
        a.offeredCandidates == b.offeredCandidates &&
        a.servedCandidates == b.servedCandidates &&
        a.tierQueries == b.tierQueries &&
        a.tierCandidateFraction == b.tierCandidateFraction &&
        a.hbmAccesses == b.hbmAccesses &&
        a.uvmAccesses == b.uvmAccesses &&
        a.cacheHits == b.cacheHits;
}

std::string
describeLedger(const ServingLedger &ledger)
{
    std::ostringstream os;
    os << "offered " << ledger.offered << " = full " << ledger.full
       << " + degraded " << ledger.degraded << " + shed "
       << ledger.shed << " (served " << ledger.served << ")\n"
       << "candidates " << ledger.servedCandidates << " / "
       << ledger.offeredCandidates << "\ntiers [";
    for (std::size_t t = 0; t < ledger.tierQueries.size(); ++t)
        os << (t ? " " : "") << ledger.tierQueries[t];
    os << "] fractions [";
    for (std::size_t t = 0; t < ledger.tierCandidateFraction.size();
         ++t)
        os << (t ? " " : "") << ledger.tierCandidateFraction[t];
    os << "]\nhbm " << ledger.hbmAccesses << " uvm "
       << ledger.uvmAccesses << " cacheHits " << ledger.cacheHits;
    return os.str();
}

ServingLedger
ledgerOf(const RoutingReport &report)
{
    ServingLedger l;
    l.offered = report.queries;
    l.served = report.servedQueries;
    l.full = report.fullQueries;
    l.degraded = report.degradedQueries;
    l.shed = report.shedQueries;
    l.offeredCandidates = report.offeredCandidates;
    l.servedCandidates = report.servedCandidates;
    l.tierQueries = report.tierQueries;
    l.tierCandidateFraction = report.tierCandidateFraction;
    l.hbmAccesses = report.hbmAccesses;
    l.uvmAccesses = report.uvmAccesses;
    l.cacheHits = report.cacheHits;
    return l;
}

RealTimeExecutor::RealTimeExecutor(const ModelSpec &model_,
                                   const RoutingCluster &cluster_,
                                   RealTimeConfig config)
    : model(model_), cluster(cluster_), cfg(std::move(config))
{
    fatal_if(cluster.numNodes() == 0,
             "real-time executor needs >= 1 node");
    fatal_if(cfg.mode != "mirror", "unknown real-time mode '",
             cfg.mode, "'; known modes: mirror");
    fatal_if(cfg.router.hedge.enabled,
             "request hedging is a DES-only mechanism; the "
             "real-time backend does not duplicate work (disable "
             "hedge.enabled)");
    // Fail fast on a bad overload config, exactly like the Router.
    makeAdmissionController(cfg.router.overload.admission,
                            cluster.numNodes(),
                            cfg.router.slaSeconds);
    (void)DegradationPolicy(cfg.router.overload.degradation);
}

std::uint32_t
RealTimeExecutor::resolvedWorkerThreads() const
{
    const std::uint32_t N = cluster.numNodes();
    if (cfg.workerThreads != 0)
        return std::min(cfg.workerThreads, N);
    std::uint32_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 2;
    return std::min(N, std::max<std::uint32_t>(1, hw - 1));
}

std::uint32_t
RealTimeExecutor::resolvedProducerThreads() const
{
    // Producers partition the node space; extras would idle.
    return std::min(cfg.producerThreads != 0 ? cfg.producerThreads
                                             : 1,
                    cluster.numNodes());
}

RealTimeReport
RealTimeExecutor::run(const RoutedTrace &trace) const
{
    // The deterministic twin decides, real threads execute.
    std::vector<RouteDecision> decisions;
    Router(model, cluster, cfg.router).route(trace, &decisions);
    return run(trace, decisions);
}

RealTimeReport
RealTimeExecutor::run(
    const RoutedTrace &trace,
    const std::vector<RouteDecision> &decisions) const
{
    fatal_if(trace.queries.empty(), "no queries to serve");
    fatal_if(decisions.size() != trace.queries.size(),
             "decision stream covers ", decisions.size(), " of ",
             trace.queries.size(), " queries");

    const std::uint32_t N = cluster.numNodes();
    const std::uint64_t Q = trace.queries.size();
    const std::uint32_t W = resolvedWorkerThreads();
    const std::uint32_t P = resolvedProducerThreads();

    const DegradationPolicy degrade(cfg.router.overload.degradation);
    const std::uint32_t tiers =
        degrade.enabled() ? degrade.numTiers() : 1;
    // The stream is public input: reject what would index past a
    // node or tier, or inflate the candidate ledger, before any
    // thread can trip over it.
    for (std::uint64_t q = 0; q < Q; ++q) {
        const RouteDecision &d = decisions[q];
        fatal_if(d.node >= N, "decision for query ", q,
                 " names node ", d.node, " of ", N);
        if (d.shed)
            continue;
        fatal_if(d.tier >= tiers, "decision for query ", q,
                 " names fidelity tier ", d.tier, " of ", tiers);
        fatal_if(d.keptSamples > trace.queries[q].query.samples,
                 "decision for query ", q, " keeps ",
                 d.keptSamples, " of ",
                 trace.queries[q].query.samples, " candidates");
    }

    std::vector<std::unique_ptr<NodeRuntime>> nodes;
    nodes.reserve(N);
    std::uint32_t total_gpus = 0;
    for (std::uint32_t n = 0; n < N; ++n) {
        nodes.push_back(std::make_unique<NodeRuntime>(
            model, cluster.planSet.plans[n], cluster.resolvers[n],
            cluster.nodeSystem(n), cfg.router.server));
        total_gpus += cluster.nodeSystem(n).numGpus;
    }

    // One metrics shard per thread (workers first, then
    // producers): every thread records into its own shard and the
    // shards are merged once, after every thread has been joined.
    ShardedServingMetrics metrics(W + P);
    std::vector<WorkerLedger> workerLedgers(W, WorkerLedger(tiers));
    std::vector<ProducerLedger> producerLedgers(P);
    std::atomic<bool> producersDone{false};

    const auto t0 = std::chrono::steady_clock::now();
    auto nowSeconds = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::vector<std::thread> producers;
    producers.reserve(P);
    for (std::uint32_t p = 0; p < P; ++p) {
        producers.emplace_back([&, p] {
            ProducerLedger &led = producerLedgers[p];
            ServingMetrics &m = metrics.shard(W + p);
            // Node-space partitioning: this producer feeds exactly
            // the nodes with node % P == p, walking the full trace
            // in arrival order — so every queue receives its
            // queries in the same order the DES dispatched them,
            // and cache counters stay byte-comparable.
            for (std::uint64_t q = 0; q < Q; ++q) {
                const RouteDecision &d = decisions[q];
                if (d.node % P != p)
                    continue;
                if (d.shed) {
                    ++led.shed;
                    led.shedOfferedCand +=
                        trace.queries[q].query.samples;
                    m.recordShed(nowSeconds(),
                                 trace.queries[q].query.samples);
                    continue;
                }
                nodes[d.node]->queue.push(
                    {q, d.tier, d.keptSamples, nowSeconds()});
            }
        });
    }

    std::vector<std::thread> workers;
    workers.reserve(W);
    for (std::uint32_t w = 0; w < W; ++w) {
        workers.emplace_back([&, w] {
            // This worker owns nodes with node % W == w; each node
            // is drained by exactly one thread, so its pool's
            // caches and clocks are single-writer.
            std::vector<std::uint32_t> owned;
            for (std::uint32_t n = w; n < N; n += W)
                owned.push_back(n);
            WorkerLedger &led = workerLedgers[w];
            ServingMetrics &m = metrics.shard(w);
            std::vector<std::uint32_t> prefix; // dispatch scratch
            for (;;) {
                // Read the done flag *before* sweeping: if the
                // sweep then finds every owned queue empty, all
                // pushes (which happened-before the flag) have
                // been drained and the worker may exit.
                const bool done = producersDone.load(
                    std::memory_order_acquire);
                bool any = false;
                for (const std::uint32_t n : owned) {
                    NodeRuntime &nr = *nodes[n];
                    QueueItem item;
                    if (!nr.queue.tryPop(item))
                        continue;
                    any = true;
                    const RoutedQuery &rq =
                        trace.queries[item.id];
                    const bool trimmed =
                        item.kept < rq.query.samples;
                    std::uint64_t executed = rq.totalLookups;
                    const std::vector<std::uint32_t> *pfx =
                        nullptr;
                    if (trimmed) {
                        rq.degradedPrefix(item.kept, prefix);
                        executed = 0;
                        for (const std::uint32_t c : prefix)
                            executed += c;
                        pfx = &prefix;
                    }
                    const BatchCompletion done_batch =
                        nr.pool.executeOne(
                            trimmed ? rq.asDegradedBatch(
                                          0.0, item.kept)
                                    : rq.asBatch(0.0),
                            rq.lookups, pfx);
                    const double now = nowSeconds();
                    ++led.tierQueries[item.tier];
                    led.tierOfferedCand[item.tier] +=
                        rq.query.samples;
                    led.tierServedCand[item.tier] += item.kept;
                    led.hbm += done_batch.hbmAccesses;
                    led.uvm += done_batch.uvmAccesses;
                    led.cacheHits += done_batch.cacheHits;
                    led.executedLookups += executed;
                    m.recordQuery(item.enqueueSeconds, now,
                                  rq.query.samples, item.kept);
                }
                if (!any) {
                    if (done)
                        break;
                    std::this_thread::yield();
                }
            }
        });
    }

    for (std::thread &t : producers)
        t.join();
    producersDone.store(true, std::memory_order_release);
    for (std::thread &t : workers)
        t.join();
    const double wall_seconds = nowSeconds();

    // ---------------------------------------------------- reduce
    RealTimeReport r;
    r.nodes = N;
    r.workerThreads = W;
    r.producerThreads = P;
    const std::string &admission_name =
        cfg.router.overload.admission.policy;
    r.name = "realtime+" + cfg.mode + "+" +
        routingPolicyName(cfg.router.policy) +
        (admission_name != "admit-all" ? "+" + admission_name
                                       : "") +
        (degrade.enabled() ? "+degrade" : "");

    ServingLedger &l = r.ledger;
    l.offered = Q;
    l.tierQueries.assign(tiers, 0);
    std::vector<std::uint64_t> tier_offered(tiers, 0);
    std::vector<std::uint64_t> tier_served(tiers, 0);
    for (const WorkerLedger &led : workerLedgers) {
        for (std::uint32_t t = 0; t < tiers; ++t) {
            l.tierQueries[t] += led.tierQueries[t];
            tier_offered[t] += led.tierOfferedCand[t];
            tier_served[t] += led.tierServedCand[t];
        }
        l.hbmAccesses += led.hbm;
        l.uvmAccesses += led.uvm;
        l.cacheHits += led.cacheHits;
        r.executedLookups += led.executedLookups;
    }
    for (const ProducerLedger &led : producerLedgers) {
        l.shed += led.shed;
        l.offeredCandidates += led.shedOfferedCand;
    }
    l.full = l.tierQueries[0];
    for (std::uint32_t t = 1; t < tiers; ++t)
        l.degraded += l.tierQueries[t];
    l.served = l.full + l.degraded;
    panic_if(l.served + l.shed != Q, "served ", l.served,
             " + shed ", l.shed, " of ", Q,
             " queries crossed the real-time backend");
    for (std::uint32_t t = 0; t < tiers; ++t) {
        l.offeredCandidates += tier_offered[t];
        l.servedCandidates += tier_served[t];
    }
    l.tierCandidateFraction.resize(tiers, 0.0);
    for (std::uint32_t t = 0; t < tiers; ++t)
        if (tier_offered[t])
            l.tierCandidateFraction[t] =
                static_cast<double>(tier_served[t]) /
                static_cast<double>(tier_offered[t]);

    double busy_seconds = 0.0;
    for (const auto &nr : nodes)
        busy_seconds += nr->pool.busySeconds();
    r.wall = metrics.merged().report(r.name, cfg.router.slaSeconds,
                                     total_gpus, busy_seconds);
    r.wallSeconds = wall_seconds;
    if (wall_seconds > 0.0) {
        r.sustainedQps =
            static_cast<double>(l.served) / wall_seconds;
        r.lookupsPerSecond =
            static_cast<double>(r.executedLookups) / wall_seconds;
    }
    return r;
}

} // namespace recshard
