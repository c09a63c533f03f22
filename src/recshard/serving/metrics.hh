/**
 * @file
 * Serving-side measurement: what a sharding plan delivers under
 * live traffic.
 *
 * The offline engine reports mean iteration time; serving SLAs are
 * written against *tail* latency at a target throughput. The
 * ServingMetrics collector accumulates per-query latencies, batch
 * shapes, and tier traffic, and reduces them to a ServingReport:
 * achieved QPS, p50/p95/p99 latency, time-weighted queue depth,
 * cache hit rate, server utilization, and the SLA violation rate —
 * the numbers a capacity planner compares across plans.
 */

#ifndef RECSHARD_SERVING_METRICS_HH
#define RECSHARD_SERVING_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace recshard {

/** A latency population reduced to what every serving report
 *  (ServingReport, RoutingReport, ReplanReport) quotes. All zero
 *  for an empty population. */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /** Samples strictly above the SLA. */
    std::uint64_t violations = 0;
    /** violations / count. */
    double violationRate = 0.0;
};

/** Mean, max, p50/p95/p99 and SLA violations of one sample. */
LatencySummary summarizeLatencies(std::vector<double> latencies,
                                  double sla_seconds);

/** One plan's measurements under one traffic trace. */
struct ServingReport
{
    std::string strategy;
    /** Queries offered: served + shed. */
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    /** First arrival to last completion, seconds. */
    double durationSeconds = 0.0;
    /** Served (completed) queries per second of that window. */
    double qps = 0.0;

    /**
     * Served/shed split. Latency statistics below are computed over
     * the *served* population only: a shed (rejected or canceled)
     * query has no completion time, and folding it into the
     * percentiles would make p99 meaningless exactly at overload —
     * the regression is pinned by serving_test's
     * PercentilesCoverServedQueriesOnly.
     */
    std::uint64_t servedQueries = 0;
    std::uint64_t shedQueries = 0;
    double shedRate = 0.0; //!< shed / offered
    /** Served queries that met the SLA. */
    std::uint64_t goodQueries = 0;
    /** SLA-compliant served queries per second. */
    double goodput = 0.0;
    /** Quality accounting: ranking candidates offered vs. actually
     *  served (degraded queries serve a subset, shed serve none). */
    std::uint64_t offeredCandidates = 0;
    std::uint64_t servedCandidates = 0;
    double candidateFraction = 0.0;

    double meanLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;
    double maxLatency = 0.0;

    /** Time-weighted mean of in-flight (admitted, incomplete)
     *  queries. */
    double meanQueueDepth = 0.0;
    std::uint64_t maxQueueDepth = 0;
    double meanBatchQueries = 0.0;

    std::uint64_t hbmAccesses = 0;
    std::uint64_t uvmAccesses = 0;
    std::uint64_t cacheHits = 0;
    /** Hits over all would-be-UVM lookups (hits + misses). */
    double cacheHitRate = 0.0;
    /** UVM share of all EMB accesses after the cache. */
    double uvmAccessFraction = 0.0;

    double slaSeconds = 0.0;
    /** Fraction of *served* queries with latency above
     *  slaSeconds. */
    double slaViolationRate = 0.0;
    /** Busy seconds over GPU-seconds of the serving window. */
    double serverUtilization = 0.0;
};

/** Streaming accumulator producing a ServingReport. */
class ServingMetrics
{
  public:
    /**
     * One served query's life: admitted at `arrival`, done at
     * `completion`. Candidate counts feed the quality accounting;
     * `served_samples` of 0 means "all offered candidates" (the
     * non-degraded default).
     */
    void recordQuery(double arrival, double completion,
                     std::uint32_t offered_samples = 1,
                     std::uint32_t served_samples = 0);

    /** One query rejected (or canceled) at `arrival` without ever
     *  completing: counted against offered load, excluded from the
     *  latency population. */
    void recordShed(double arrival,
                    std::uint32_t offered_samples = 1);

    /** One sealed micro-batch's shape. */
    void recordBatch(std::uint64_t num_queries);

    /** Tier traffic of one executed batch (summed over GPUs). */
    void recordTraffic(std::uint64_t hbm, std::uint64_t uvm,
                       std::uint64_t cache_hits);

    /**
     * Fold another collector's samples and counters into this one.
     * Order-insensitive for every report() output (percentiles
     * sort, counters sum), so per-thread shards can be merged in
     * any order — see ShardedServingMetrics.
     */
    void mergeFrom(const ServingMetrics &other);

    /**
     * Reduce to a report.
     *
     * @param strategy     Plan name for the report.
     * @param sla_seconds  Latency SLA to score violations against.
     * @param gpus         Server count (for utilization).
     * @param busy_seconds Total busy time across servers.
     */
    ServingReport report(const std::string &strategy,
                         double sla_seconds, std::uint32_t gpus,
                         double busy_seconds) const;

  private:
    std::vector<double> arrivals;    //!< served queries only
    std::vector<double> completions; //!< served queries only
    std::vector<double> shedArrivals;
    std::uint64_t batchesV = 0;
    std::uint64_t batchedQueries = 0;
    std::uint64_t hbm = 0;
    std::uint64_t uvm = 0;
    std::uint64_t cacheHitsV = 0;
    std::uint64_t offeredCand = 0;
    std::uint64_t servedCand = 0;
};

/**
 * Concurrent-recording wrapper: one ServingMetrics shard per
 * recording thread, merged once at report time.
 *
 * ServingMetrics itself is deliberately *not* synchronized — its
 * hot path is two vector push_backs, and a mutex (or atomics on
 * the sample vectors) would serialize exactly the threads the
 * real-time backend exists to scale across. Sharing one collector
 * across threads is a data race: concurrent push_backs lose
 * samples or corrupt the vectors outright (the TSan CI job and
 * serving_test's ConcurrentRecordingConservesEveryQuery pin this).
 * The sharded form gives each thread private ownership of its
 * shard; merged() is only valid once every recording thread has
 * been joined (join provides the happens-before edge).
 */
class ShardedServingMetrics
{
  public:
    /** @param num_shards One per recording thread; must be >= 1. */
    explicit ShardedServingMetrics(std::uint32_t num_shards);

    /** Shard `i`'s collector; each thread must use its own. */
    ServingMetrics &shard(std::uint32_t i);

    std::uint32_t numShards() const
    {
        return static_cast<std::uint32_t>(shards.size());
    }

    /** All shards folded into one collector (join threads first). */
    ServingMetrics merged() const;

  private:
    /** Cache-line padding so two threads' shards never contend on
     *  one line while recording. */
    struct alignas(64) PaddedMetrics
    {
        ServingMetrics metrics;
    };

    std::vector<PaddedMetrics> shards;
};

} // namespace recshard

#endif // RECSHARD_SERVING_METRICS_HH
