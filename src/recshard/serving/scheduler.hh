/**
 * @file
 * Admission queue and dynamic micro-batching.
 *
 * Production recommendation servers never run one query at a time:
 * an admission queue coalesces concurrent requests into micro-
 * batches so the embedding kernels amortize their launch cost, at
 * the price of queueing delay. The BatchScheduler implements the
 * standard dynamic-batching policy: an open batch seals when it
 * reaches the size target (samples or queries) or when its oldest
 * query has waited the maximum tolerable time — whichever comes
 * first — so light load degrades to low-latency singleton batches
 * and heavy load converges to full batches.
 *
 * Batching decisions are made in virtual (simulated) time from the
 * arrival stamps, which keeps plan evaluation deterministic; phase 4
 * then executes the sealed batches in dispatch order on the
 * caller's thread (serving.hh).
 */

#ifndef RECSHARD_SERVING_SCHEDULER_HH
#define RECSHARD_SERVING_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "recshard/serving/load_generator.hh"

namespace recshard {

/** Dynamic-batching policy knobs. */
struct BatchingConfig
{
    /** Seal once the batch holds this many samples... */
    std::uint32_t maxBatchSamples = 64;
    /** ...or this many queries... */
    std::uint32_t maxBatchQueries = 32;
    /** ...or once the oldest admitted query has waited this long. */
    double maxWaitSeconds = 0.002;
};

/** A sealed group of queries executed as one kernel batch. */
struct MicroBatch
{
    std::uint64_t id = 0;
    /** Virtual time the batch sealed (dispatch-ready time). */
    double closeTime = 0.0;
    std::vector<Query> queries;

    std::uint32_t totalSamples() const
    {
        std::uint32_t s = 0;
        for (const Query &q : queries)
            s += q.samples;
        return s;
    }

    double oldestArrival() const
    {
        return queries.empty() ? 0.0 : queries.front().arrival;
    }
};

/** Virtual-time dynamic batcher over an arrival stream. */
class BatchScheduler
{
  public:
    explicit BatchScheduler(BatchingConfig config);

    /** Admit the next arrival (non-decreasing arrival stamps). */
    void admit(const Query &query);

    /** Seal the trailing open batch (its deadline fires). */
    void flush();

    /** Sealed batches, in dispatch order. */
    const std::vector<MicroBatch> &batches() const { return sealed; }

    /** Move the sealed batches out. */
    std::vector<MicroBatch> takeBatches();

  private:
    void seal(double close_time);

    BatchingConfig cfg;
    std::vector<MicroBatch> sealed;
    MicroBatch open;
    std::uint32_t openSamples = 0;
    std::uint64_t nextBatchId = 0;
    double lastArrival = 0.0;
};

} // namespace recshard

#endif // RECSHARD_SERVING_SCHEDULER_HH
