#include "recshard/serving/metrics.hh"

#include <algorithm>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/stats.hh"

namespace recshard {

LatencySummary
summarizeLatencies(std::vector<double> latencies, double sla_seconds)
{
    LatencySummary s;
    if (latencies.empty())
        return s;
    RunningStat lat;
    for (const double l : latencies) {
        lat.push(l);
        s.violations += l > sla_seconds;
    }
    s.count = lat.count();
    s.mean = lat.mean();
    s.max = lat.max();
    std::sort(latencies.begin(), latencies.end());
    s.p50 = sortedPercentile(latencies, 0.50);
    s.p95 = sortedPercentile(latencies, 0.95);
    s.p99 = sortedPercentile(latencies, 0.99);
    s.violationRate = static_cast<double>(s.violations) /
        static_cast<double>(s.count);
    return s;
}

void
ServingMetrics::recordQuery(double arrival, double completion,
                            std::uint32_t offered_samples,
                            std::uint32_t served_samples)
{
    fatal_if(completion < arrival, "query completed at ", completion,
             " before arriving at ", arrival);
    if (served_samples == 0)
        served_samples = offered_samples;
    fatal_if(served_samples > offered_samples,
             "query served ", served_samples, " of ",
             offered_samples, " offered candidates");
    arrivals.push_back(arrival);
    completions.push_back(completion);
    offeredCand += offered_samples;
    servedCand += served_samples;
}

void
ServingMetrics::recordShed(double arrival,
                           std::uint32_t offered_samples)
{
    shedArrivals.push_back(arrival);
    offeredCand += offered_samples;
}

void
ServingMetrics::recordBatch(std::uint64_t num_queries)
{
    ++batchesV;
    batchedQueries += num_queries;
}

void
ServingMetrics::recordTraffic(std::uint64_t hbm_, std::uint64_t uvm_,
                              std::uint64_t cache_hits)
{
    hbm += hbm_;
    uvm += uvm_;
    cacheHitsV += cache_hits;
}

void
ServingMetrics::mergeFrom(const ServingMetrics &other)
{
    arrivals.insert(arrivals.end(), other.arrivals.begin(),
                    other.arrivals.end());
    completions.insert(completions.end(),
                       other.completions.begin(),
                       other.completions.end());
    shedArrivals.insert(shedArrivals.end(),
                        other.shedArrivals.begin(),
                        other.shedArrivals.end());
    batchesV += other.batchesV;
    batchedQueries += other.batchedQueries;
    hbm += other.hbm;
    uvm += other.uvm;
    cacheHitsV += other.cacheHitsV;
    offeredCand += other.offeredCand;
    servedCand += other.servedCand;
}

ShardedServingMetrics::ShardedServingMetrics(
    std::uint32_t num_shards)
    : shards(num_shards)
{
    fatal_if(num_shards == 0,
             "sharded metrics need >= 1 shard (one per recording "
             "thread)");
}

ServingMetrics &
ShardedServingMetrics::shard(std::uint32_t i)
{
    fatal_if(i >= shards.size(), "metrics shard ", i,
             " out of range (", shards.size(), " shards)");
    return shards[i].metrics;
}

ServingMetrics
ShardedServingMetrics::merged() const
{
    ServingMetrics all;
    for (const PaddedMetrics &s : shards)
        all.mergeFrom(s.metrics);
    return all;
}

ServingReport
ServingMetrics::report(const std::string &strategy,
                       double sla_seconds, std::uint32_t gpus,
                       double busy_seconds) const
{
    ServingReport r;
    r.strategy = strategy;
    r.slaSeconds = sla_seconds;
    r.servedQueries = arrivals.size();
    r.shedQueries = shedArrivals.size();
    r.queries = r.servedQueries + r.shedQueries;
    r.shedRate = r.queries
        ? static_cast<double>(r.shedQueries) /
            static_cast<double>(r.queries)
        : 0.0;
    r.offeredCandidates = offeredCand;
    r.servedCandidates = servedCand;
    r.candidateFraction = offeredCand
        ? static_cast<double>(servedCand) /
            static_cast<double>(offeredCand)
        : 0.0;
    r.batches = batchesV;
    r.hbmAccesses = hbm;
    r.uvmAccesses = uvm;
    r.cacheHits = cacheHitsV;
    r.cacheHitRate = cacheHitsV + uvm
        ? static_cast<double>(cacheHitsV) /
            static_cast<double>(cacheHitsV + uvm)
        : 0.0;
    const std::uint64_t accesses = hbm + uvm + cacheHitsV;
    r.uvmAccessFraction = accesses
        ? static_cast<double>(uvm) / static_cast<double>(accesses)
        : 0.0;
    r.meanBatchQueries = batchesV
        ? static_cast<double>(batchedQueries) /
            static_cast<double>(batchesV)
        : 0.0;
    if (arrivals.empty() && shedArrivals.empty())
        return r;

    // Latency statistics cover the served population only; a shed
    // query never completes, so it has no latency to fold in.
    std::vector<double> latencies(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        latencies[i] = completions[i] - arrivals[i];
    const LatencySummary lat =
        summarizeLatencies(std::move(latencies), sla_seconds);
    r.meanLatency = lat.mean;
    r.maxLatency = lat.max;
    r.p50Latency = lat.p50;
    r.p95Latency = lat.p95;
    r.p99Latency = lat.p99;
    r.slaViolationRate = lat.violationRate;
    r.goodQueries = lat.count - lat.violations;

    // Queue depth over time: sweep +1/-1 events, weighting each
    // depth by how long it persisted. Shed queries never occupy
    // the queue, but their arrivals still open the offered window.
    std::vector<std::pair<double, int>> events;
    events.reserve(2 * arrivals.size() + shedArrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        events.push_back({arrivals[i], +1});
        events.push_back({completions[i], -1});
    }
    for (const double t : shedArrivals)
        events.push_back({t, 0});
    std::sort(events.begin(), events.end());
    const double start = events.front().first;
    const double end = events.back().first;
    r.durationSeconds = end - start;
    double weighted = 0.0;
    double prev = start;
    std::int64_t depth = 0;
    for (const auto &[t, delta] : events) {
        weighted += static_cast<double>(depth) * (t - prev);
        depth += delta;
        r.maxQueueDepth = std::max<std::uint64_t>(
            r.maxQueueDepth, static_cast<std::uint64_t>(
                                 std::max<std::int64_t>(depth, 0)));
        prev = t;
    }
    if (r.durationSeconds > 0.0) {
        r.meanQueueDepth = weighted / r.durationSeconds;
        r.qps = static_cast<double>(r.servedQueries) /
            r.durationSeconds;
        r.goodput = static_cast<double>(r.goodQueries) /
            r.durationSeconds;
        r.serverUtilization = busy_seconds /
            (static_cast<double>(gpus) * r.durationSeconds);
    }
    return r;
}

} // namespace recshard
