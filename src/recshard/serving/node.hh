/**
 * @file
 * One serving node of a multi-node cluster, with a cancelable
 * admission queue.
 *
 * A ServingNode wraps a ShardServerPool (one per-GPU shard executor
 * fleet evaluating this node's own sharding plan) behind the
 * interface the routing tier needs: queries are admitted into a
 * FIFO pending queue, dispatched one at a time — a query occupies
 * every GPU of the node simultaneously (model-parallel inference
 * with an all-gather barrier), so inter-query parallelism comes
 * from having several nodes, not from pipelining inside one — and a
 * *pending* query can be canceled before it starts. Cancelation is
 * what makes request hedging affordable: when the primary copy of a
 * hedged query finishes first, the secondary copy is usually still
 * queued and is removed at zero cost; only a copy that already
 * started runs to completion and is charged as wasted work.
 *
 * Everything runs in virtual time on the router's event loop
 * thread; the node never spawns threads of its own, so a fixed
 * admission sequence always reproduces the same completions.
 */

#ifndef RECSHARD_SERVING_NODE_HH
#define RECSHARD_SERVING_NODE_HH

#include <cstdint>
#include <deque>

#include "recshard/serving/shard_server.hh"

namespace recshard {

/** One dispatched query's execution record on a node. */
struct NodeDispatch
{
    std::uint64_t queryId = 0;
    double startTime = 0.0;
    double finishTime = 0.0;
    double serviceSeconds = 0.0;
    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
};

/** A single serving node: plan-specific fleet + cancelable queue. */
class ServingNode
{
  public:
    /**
     * @param id        Node index within the cluster.
     * @param model     Model served (row geometry).
     * @param plan      This node's sharding plan.
     * @param resolvers Per-EMB tier resolvers for that plan.
     * @param system    Per-node system (GPU count, bandwidths).
     * @param config    Cache and overhead knobs.
     */
    ServingNode(std::uint32_t id, const ModelSpec &model,
                const ShardingPlan &plan,
                const std::vector<TierResolver> &resolvers,
                const SystemSpec &system,
                const ShardServerConfig &config);

    /**
     * Move-only: the pool's servers own their admission-policy
     * instances through unique_ptr, and deleting the copy ops here
     * (rather than relying on the member-wise implicit deletion)
     * lets vector growth select the move constructor even though
     * the pending deque's move is not noexcept.
     */
    ServingNode(ServingNode &&) = default;
    ServingNode(const ServingNode &) = delete;
    ServingNode &operator=(const ServingNode &) = delete;

    /** Append a query to the pending queue (no dispatch yet). */
    void enqueue(std::uint64_t query_id);

    /** Is a query currently occupying the fleet? */
    bool busy() const { return running; }

    /** Pending (not yet started) plus running queries. */
    std::uint64_t outstanding() const
    {
        return pending.size() + (running ? 1 : 0);
    }

    /** Queries waiting in the admission queue. */
    bool hasPending() const { return !pending.empty(); }

    /**
     * Remove a *pending* query from the admission queue.
     *
     * @return true if the query was still pending (now removed);
     *         false if it already started, finished, or was never
     *         admitted here — started work cannot be recalled.
     */
    bool cancelPending(std::uint64_t query_id);

    /**
     * Start the head-of-line pending query at virtual time `now`
     * (requires an idle fleet): every GPU executes its shard, and
     * the node stays busy until the returned finish time. The
     * caller owns the completion event; it must call
     * completeRunning() when that event fires.
     *
     * @param now     Dispatch time (>= all prior finish times).
     * @param batch   The query wrapped as a singleton micro-batch.
     * @param lookups Per-feature row ids the query reads.
     * @param prefix  Optional per-feature lookup-count limits: a
     *                degraded query executes only the CSR prefix
     *                of its kept ranking candidates (see
     *                ShardServer::execute). Null serves fully.
     */
    NodeDispatch
    dispatchNext(double now, const MicroBatch &batch,
                 const std::vector<std::vector<std::uint64_t>>
                     &lookups,
                 const std::vector<std::uint32_t> *prefix =
                     nullptr);

    /** Head-of-line pending query id (requires hasPending()). */
    std::uint64_t frontPending() const;

    /** Mark the running query finished; the fleet is idle again. */
    void completeRunning();

    std::uint32_t id() const { return idV; }
    const ShardingPlan &plan() const { return planV; }
    /** Queries dispatched (started) on this node. */
    std::uint64_t dispatched() const { return dispatchedV; }

  private:
    std::uint32_t idV;
    const ShardingPlan &planV;
    ShardServerPool poolV;
    std::deque<std::uint64_t> pending;
    bool running = false;
    std::uint64_t runningId = 0;
    std::uint64_t dispatchedV = 0;
};

} // namespace recshard

#endif // RECSHARD_SERVING_NODE_HH
