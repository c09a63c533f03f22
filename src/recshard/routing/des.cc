#include "recshard/routing/des.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

LatencyWindow::LatencyWindow(std::uint64_t capacity)
    : cap(capacity)
{
    fatal_if(cap == 0, "latency window cannot be empty");
    buf.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(cap, 4096)));
}

void
LatencyWindow::push(double latency)
{
    if (buf.size() < cap)
        buf.push_back(latency);
    else
        // `count` samples already landed, so this one is sample
        // count+1; its slot is count % cap — overwriting exactly
        // the oldest survivor. (The historical off-by-one wrote
        // (count+1) % cap, which spared the oldest sample one
        // extra lap while evicting a one-newer sample.)
        buf[count % cap] = latency;
    ++count;
}

double
LatencyWindow::quantile(double q) const
{
    fatal_if(buf.empty(), "percentile of an empty sample");
    fatal_if(q < 0.0 || q > 1.0, "quantile ", q, " outside [0,1]");
    // sortedPercentile's interpolation, but each end is selected
    // rather than sorted into place: the lo-th order statistic by
    // nth_element, the (lo+1)-th as the minimum of what lies above
    // it. They are the same elements a full sort puts there, so the
    // result is bit-identical to percentile(buf, q). The copy is
    // local, so concurrent const calls stay safe.
    std::vector<double> xs(buf);
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const auto loIt = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), loIt, xs.end());
    const double loV = *loIt;
    const double hiV =
        hi == lo ? loV : *std::min_element(loIt + 1, xs.end());
    return loV + frac * (hiV - loV);
}

ServingKernel::ServingKernel(
    const ModelSpec &model_, const RoutingCluster &cluster_,
    const std::vector<ShardingPlan> &plans_,
    const std::vector<std::vector<TierResolver>> &resolvers,
    const RoutedTrace &trace_, RoutingPolicy policy,
    double localityLoadPenalty, const OverloadConfig &overload,
    const ShardServerConfig &server, double slaSeconds)
    : model(model_), cluster(cluster_), trace(trace_), plans(plans_),
      index(plans_),
      picker(policy, index, localityLoadPenalty),
      admission(makeAdmissionController(
          overload.admission, cluster_.numNodes(), slaSeconds)),
      degrade(overload.degradation), sla(slaSeconds),
      state(trace_.queries.size()),
      firstArrival(trace_.queries.front().query.arrival),
      lastFinish(firstArrival),
      nodeBusySeconds(cluster_.numNodes(), 0.0)
{
    const std::uint32_t N = cluster.numNodes();
    nodes.reserve(N);
    for (std::uint32_t n = 0; n < N; ++n)
        nodes.emplace_back(n, model, plans[n], resolvers[n],
                           cluster.nodeSystem(n), server);
    latencies.reserve(trace.queries.size());
    const std::uint32_t tiers =
        degrade.enabled() ? degrade.numTiers() : 1;
    tierQueries.assign(tiers, 0);
    tierOfferedCandidates.assign(tiers, 0);
    tierServedCandidates.assign(tiers, 0);
}

void
ServingKernel::run()
{
    for (const RoutedQuery &rq : trace.queries)
        schedule(rq.query.arrival, EventKind::Arrival, rq.query.id,
                 kNoNode);

    while (!events.empty()) {
        const Event e = events.top();
        events.pop();
        switch (e.kind) {
          case EventKind::Arrival: arrive(e); break;
          case EventKind::Completion: complete(e); break;
          default: onEvent(e); break;
        }
    }

    for (const ServingNode &node : nodes)
        panic_if(node.outstanding() != 0, "node ", node.id(),
                 " finished with ", node.outstanding(),
                 " queries stranded");
    panic_if(latencies.size() + shed != trace.queries.size(),
             "served ", latencies.size(), " + shed ", shed, " of ",
             trace.queries.size(), " queries");
}

void
ServingKernel::schedule(double time, EventKind kind,
                        std::uint64_t query, std::uint32_t node,
                        double serviceSeconds)
{
    events.push({time, seq++, kind, query, node, serviceSeconds});
}

void
ServingKernel::enqueue(std::uint32_t n, std::uint64_t query)
{
    nodes[n].enqueue(query);
    maxOutstanding = std::max<std::uint64_t>(maxOutstanding,
                                             nodes[n].outstanding());
}

void
ServingKernel::tryDispatch(std::uint32_t n, double now)
{
    if (!mayDispatch(n) || nodes[n].busy() || !nodes[n].hasPending())
        return;
    const std::uint64_t qid = nodes[n].frontPending();
    const RoutedQuery &rq = trace.queries[qid];
    QueryState &st = state[qid];
    // A degraded query executes only its kept candidates' lookups,
    // a CSR prefix of each feature's list limited in place, so its
    // service time genuinely shrinks with its fidelity.
    const bool trimmed = st.keptSamples < rq.query.samples;
    if (trimmed)
        rq.degradedPrefix(st.keptSamples, prefix);
    const NodeDispatch d = trimmed
        ? nodes[n].dispatchNext(
              now, rq.asDegradedBatch(now, st.keptSamples),
              rq.lookups, &prefix)
        : nodes[n].dispatchNext(now, rq.asBatch(now), rq.lookups);
    nodeBusySeconds[n] += d.serviceSeconds;
    hbm += d.hbmAccesses;
    uvm += d.uvmAccesses;
    cacheHits += d.cacheHits;
    admission->observeDispatch(n, now, now - rq.query.arrival,
                               d.serviceSeconds);
    st.started = true;
    onDispatch(n, qid, d);
    schedule(d.finishTime, EventKind::Completion, qid, n,
             d.serviceSeconds);
}

void
ServingKernel::repointLocality()
{
    index = LocalityIndex(plans);
}

void
ServingKernel::arrive(const Event &e)
{
    const RoutedQuery &rq = trace.queries[e.query];
    const std::uint32_t n = picker.pick(rq, nodes);
    QueryState &st = state[e.query];
    st.node = n;
    offeredCandidates += rq.query.samples;

    const AdmissionVerdict verdict =
        admission->decide(e.time, n, nodes[n].outstanding());
    if ((!verdict.admit && !degrade.enabled()) ||
        (degrade.enabled() && degrade.shouldShed(verdict))) {
        st.shed = true;
        ++shed;
    } else {
        st.tier = degrade.enabled() ? degrade.tierFor(verdict) : 0;
        st.keptSamples = st.tier == 0
            ? rq.query.samples
            : degrade.degradedSamples(rq.query.samples, st.tier);
        ++tierQueries[st.tier];
        tierOfferedCandidates[st.tier] += rq.query.samples;
        tierServedCandidates[st.tier] += st.keptSamples;
        servedCandidates += st.keptSamples;
        enqueue(n, e.query);
        tryDispatch(n, e.time);
    }
    onArrival(e.query, n, e.time);
}

void
ServingKernel::complete(const Event &e)
{
    nodes[e.node].completeRunning();
    QueryState &st = state[e.query];
    if (st.done) {
        wastedSeconds += e.serviceSeconds;
    } else {
        st.done = true;
        const double latency =
            e.time - trace.queries[e.query].query.arrival;
        latencies.push_back(latency);
        lastFinish = std::max(lastFinish, e.time);
        onServed(e, latency);
    }
    tryDispatch(e.node, e.time);
    afterCompletion(e.node, e.time);
}

} // namespace recshard
