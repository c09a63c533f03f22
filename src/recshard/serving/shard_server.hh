/**
 * @file
 * Per-GPU shard executors and the per-plan server pool.
 *
 * A ShardServer models one GPU serving its shard of the embedding
 * tables under a sharding plan: for each micro-batch it walks the
 * batch's materialized lookups, resolves every row to HBM or UVM
 * with the plan's TierResolver, lets the LRU hot-row cache absorb
 * UVM hits, and prices the batch with the same EmbCostModel the
 * offline engine uses. Latency accounting runs in virtual time: a
 * server is a FIFO queue with deterministic service times, and the
 * ShardServerPool executes every server on the caller's thread.
 *
 * A query completes when every GPU has finished its micro-batch
 * (the all-gather barrier of model-parallel inference), so query
 * latency is bounded below by the slowest shard — exactly the
 * bottleneck a RecShard plan minimizes.
 */

#ifndef RECSHARD_SERVING_SHARD_SERVER_HH
#define RECSHARD_SERVING_SHARD_SERVER_HH

#include <cstdint>
#include <vector>

#include <memory>

#include "recshard/datagen/feature_spec.hh"
#include "recshard/memsim/system_spec.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/serving/lru_cache.hh"
#include "recshard/serving/scheduler.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/** Per-server knobs. */
struct ShardServerConfig
{
    /** Per-GPU LRU hot-row cache capacity; 0 disables the cache. */
    std::uint64_t cacheRows = 0;
    /** Fixed per-micro-batch overhead (kernel launch + gather). */
    double batchOverheadSeconds = 20e-6;
    /** Cache admission policy ("always", "tinylfu", "cdf-gated")
     *  and its knobs; each server builds its own instance. */
    CacheAdmissionConfig admission;
};

/** One micro-batch's execution record on one GPU. */
struct BatchExecution
{
    double readyTime = 0.0;   //!< batch seal (dispatch) time
    double startTime = 0.0;   //!< max(readyTime, server free time)
    double finishTime = 0.0;  //!< startTime + serviceSeconds
    double serviceSeconds = 0.0;
    std::uint64_t hbmAccesses = 0;  //!< plan-pinned rows
    std::uint64_t uvmAccesses = 0;  //!< slow-tier misses
    std::uint64_t cacheHits = 0;    //!< UVM rows absorbed by the LRU
};

/** One GPU's shard executor (single-threaded, virtual-time FIFO). */
class ShardServer
{
  public:
    /**
     * @param gpu       GPU id this server models.
     * @param model     Model being served (row geometry).
     * @param plan      Sharding plan being evaluated.
     * @param resolvers Per-EMB tier resolvers for the plan.
     * @param cost      Kernel cost model of the system.
     * @param config    Cache and overhead knobs.
     */
    ShardServer(std::uint32_t gpu, const ModelSpec &model,
                const ShardingPlan &plan,
                const std::vector<TierResolver> &resolvers,
                const EmbCostModel &cost, ShardServerConfig config);

    /**
     * Execute one micro-batch; advances the virtual clock.
     *
     * @param batch   The sealed batch (timing metadata).
     * @param lookups Per-feature row ids the batch reads (the
     *                trace's lookups[b]); only this GPU's features
     *                are touched.
     * @param prefix  Optional per-feature lookup-count limits:
     *                only lookups[j][0 .. prefix[j]) execute —
     *                how degraded-mode serving (overload/) trims a
     *                query to its kept ranking candidates without
     *                copying the trace. Null executes everything.
     */
    BatchExecution
    execute(const MicroBatch &batch,
            const std::vector<std::vector<std::uint64_t>> &lookups,
            const std::vector<std::uint32_t> *prefix = nullptr);

    std::uint32_t gpu() const { return gpuV; }
    /** Accumulated busy (service) seconds. */
    double busySeconds() const { return busy; }

    /**
     * Accumulated lookups resolved to each tier (cache hits count
     * as tier 0, like the HBM they emulate). Always sized to the
     * cost model's tier count; on a two-tier system entries 0/1
     * mirror the hbm/uvm ledger.
     */
    const std::vector<std::uint64_t> &tierAccessTotals() const
    {
        return tierTotals;
    }

  private:
    std::uint32_t gpuV;
    const ModelSpec &model;
    const std::vector<TierResolver> &resolvers;
    /** By value (it is two bandwidths and a mode): referencing the
     *  owning pool's copy would dangle when the pool is moved. */
    EmbCostModel cost;
    ShardServerConfig cfg;
    std::vector<std::uint32_t> features; //!< EMBs on this GPU
    /** Declared before lru, which borrows the raw pointer; the
     *  pointee is heap-owned so moving the server keeps it valid. */
    std::unique_ptr<CacheAdmission> admission;
    LruRowCache lru;
    double freeTime = 0.0; //!< virtual time the server idles from
    double busy = 0.0;
    std::vector<std::uint64_t> tierTotals; //!< lookups per tier
    /** execute() scratch: one feature's lookups and one batch's
     *  bytes per tier. */
    std::vector<std::uint64_t> tierCounts;
    std::vector<std::uint64_t> tierBytes;
};

/** All GPUs' execution records for one micro-batch. */
struct BatchCompletion
{
    /** All-gather completion: slowest shard's finish time. */
    double finishTime = 0.0;
    /** Summed tier traffic across GPUs. */
    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
};

/** Fleet of per-GPU servers evaluating one plan. */
class ShardServerPool
{
  public:
    ShardServerPool(const ModelSpec &model, const ShardingPlan &plan,
                    const std::vector<TierResolver> &resolvers,
                    const SystemSpec &system,
                    ShardServerConfig config);

    /**
     * Execute a single micro-batch across every GPU of the fleet,
     * synchronously, on the caller's thread. Each server starts at
     * max(batch ready time, its own free time) on its own virtual
     * clock, so a server runs ahead to the next batch while a
     * slower shard is still busy. Phase 4 calls this once per
     * sealed batch in dispatch order; the routing tier's event
     * loop calls it once per dispatched query.
     *
     * @param batch   Sealed batch (timing metadata).
     * @param lookups Per-feature row ids the batch reads.
     * @param prefix  Optional per-feature lookup-count limits
     *                (degraded-mode serving; see
     *                ShardServer::execute).
     * @return The all-GPU completion (slowest shard's finish).
     */
    BatchCompletion
    executeOne(const MicroBatch &batch,
               const std::vector<std::vector<std::uint64_t>>
                   &lookups,
               const std::vector<std::uint32_t> *prefix = nullptr);

    /** Summed busy (service) seconds across the fleet. */
    double busySeconds() const;

    const std::vector<ShardServer> &servers() const
    {
        return fleet;
    }

  private:
    EmbCostModel cost;
    std::vector<ShardServer> fleet;
};

} // namespace recshard

#endif // RECSHARD_SERVING_SHARD_SERVER_HH
