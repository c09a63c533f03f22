#include "recshard/routing/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

MicroBatch
RoutedQuery::asDegradedBatch(double ready, std::uint32_t kept) const
{
    fatal_if(kept == 0 || kept > query.samples,
             "query ", query.id, " offers ", query.samples,
             " candidates; cannot keep ", kept);
    MicroBatch b = asBatch(ready);
    b.queries.front().samples = kept;
    return b;
}

void
RoutedQuery::degradedPrefix(std::uint32_t kept,
                            std::vector<std::uint32_t> &out) const
{
    fatal_if(kept == 0 || kept > query.samples,
             "query ", query.id, " offers ", query.samples,
             " candidates; cannot keep ", kept);
    fatal_if(sampleOffsets.size() != lookups.size(),
             "query ", query.id, " has ", sampleOffsets.size(),
             " offset lists for ", lookups.size(), " features");
    out.resize(lookups.size());
    for (std::size_t j = 0; j < lookups.size(); ++j)
        out[j] = sampleOffsets[j][kept];
}

namespace {

/**
 * Queries per parallelFor item when lookups are drawn. A chunk's
 * vectors are allocated together in one worker's malloc arena, in
 * the order Router::route later reads them; one query per item
 * scattered neighbouring queries across arenas and slowed serving.
 */
constexpr std::uint64_t kQueriesPerItem = 256;

/**
 * The serial pass both trace builders share: `num_queries` arrivals
 * from one LoadGenerator, with dense ids in arrival order. Lookups
 * are left empty for fillLookups().
 */
RoutedTrace
drawArrivals(const LoadConfig &load, std::uint64_t num_queries)
{
    fatal_if(num_queries == 0, "need at least one query to route");
    LoadGenerator generator(load);
    RoutedTrace trace;
    trace.queries.resize(num_queries);
    for (std::uint64_t i = 0; i < num_queries; ++i) {
        Query &q = trace.queries[i].query;
        q = generator.next();
        q.id = i;
    }
    return trace;
}

/**
 * Draw the lookups of queries [begin, end) from the dataset's
 * current month on the worker team. An item is kQueriesPerItem
 * contiguous queries and fills only those queries, in query order,
 * so the trace does not depend on the worker count. Each batch is
 * drawn into the item's one buffer and copied out at its exact size:
 * the draw reserves for a generous pooling guess, and a trace holds
 * its vectors for as long as it is served.
 */
void
fillLookups(const SyntheticDataset &data, RoutedTrace &trace,
            std::uint64_t begin, std::uint64_t end)
{
    const std::uint32_t J = data.spec().numFeatures();
    const std::uint64_t items =
        (end - begin + kQueriesPerItem - 1) / kQueriesPerItem;
    parallelFor(items, [&](std::size_t k) {
        FeatureBatch fb;
        const std::uint64_t first = begin + k * kQueriesPerItem;
        const std::uint64_t last =
            std::min(end, first + kQueriesPerItem);
        for (std::uint64_t i = first; i < last; ++i) {
            RoutedQuery &rq = trace.queries[i];
            rq.lookups.resize(J);
            rq.sampleOffsets.resize(J);
            for (std::uint32_t j = 0; j < J; ++j) {
                data.featureBatch(j, rq.query.samples,
                                  rq.query.batchIndex, fb);
                rq.totalLookups += fb.indices.size();
                rq.lookups[j].assign(fb.indices.begin(),
                                     fb.indices.end());
                rq.sampleOffsets[j].assign(fb.offsets.begin(),
                                           fb.offsets.end());
            }
        }
    });
}

} // namespace

RoutedTrace
materializeRoutedTrace(const SyntheticDataset &data,
                       const LoadConfig &load,
                       std::uint64_t num_queries)
{
    RoutedTrace trace = drawArrivals(load, num_queries);
    fillLookups(data, trace, 0, num_queries);
    return trace;
}

RoutedTrace
materializeDriftingRoutedTrace(SyntheticDataset &data,
                               const LoadConfig &load,
                               std::uint64_t num_queries,
                               const DriftTraceSchedule &schedule)
{
    fatal_if(schedule.months == 0,
             "a drifting trace must span >= 1 month");
    RoutedTrace trace = drawArrivals(load, num_queries);
    const auto month_of = [&](std::uint64_t i) {
        return schedule.startMonth +
            static_cast<std::uint32_t>(i * schedule.months /
                                       num_queries);
    };
    // The month changes only here, between team runs, so no worker
    // ever sees the dataset change under it.
    const std::uint32_t saved_month = data.month();
    for (std::uint64_t begin = 0; begin < num_queries;) {
        const std::uint32_t month = month_of(begin);
        std::uint64_t end = begin + 1;
        while (end < num_queries && month_of(end) == month)
            ++end;
        data.setMonth(month);
        fillLookups(data, trace, begin, end);
        begin = end;
    }
    data.setMonth(saved_month);
    return trace;
}

namespace {

constexpr char kTraceMagic[5] = {'R', 'S', 'R', 'T', '1'};

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value),
              sizeof(value));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    fatal_if(!in, "truncated routed-trace stream");
    return value;
}

template <typename T>
void
writeVec(std::ostream &out, const std::vector<T> &v)
{
    writePod(out, static_cast<std::uint64_t>(v.size()));
    if (!v.empty())
        out.write(reinterpret_cast<const char *>(v.data()),
                  static_cast<std::streamsize>(
                      v.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVec(std::istream &in)
{
    const auto n = readPod<std::uint64_t>(in);
    std::vector<T> v(n);
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                static_cast<std::streamsize>(n * sizeof(T)));
        fatal_if(!in, "truncated routed-trace stream");
    }
    return v;
}

} // namespace

void
writeRoutedTrace(std::ostream &out, const RoutedTrace &trace)
{
    out.write(kTraceMagic, sizeof(kTraceMagic));
    writePod(out, static_cast<std::uint64_t>(trace.queries.size()));
    for (const RoutedQuery &rq : trace.queries) {
        writePod(out, rq.query.id);
        writePod(out, rq.query.arrival);
        writePod(out, rq.query.samples);
        writePod(out, rq.query.batchIndex);
        writePod(out, rq.totalLookups);
        writePod(out,
                 static_cast<std::uint64_t>(rq.lookups.size()));
        for (std::size_t j = 0; j < rq.lookups.size(); ++j) {
            writeVec(out, rq.lookups[j]);
            writeVec(out, rq.sampleOffsets[j]);
        }
    }
    fatal_if(!out, "routed-trace write failed");
}

RoutedTrace
readRoutedTrace(std::istream &in)
{
    char magic[sizeof(kTraceMagic)];
    in.read(magic, sizeof(magic));
    fatal_if(!in ||
                 !std::equal(magic, magic + sizeof(magic),
                             kTraceMagic),
             "not a routed-trace stream (bad magic)");
    const auto Q = readPod<std::uint64_t>(in);
    RoutedTrace trace;
    trace.queries.resize(Q);
    for (std::uint64_t i = 0; i < Q; ++i) {
        RoutedQuery &rq = trace.queries[i];
        rq.query.id = readPod<std::uint64_t>(in);
        fatal_if(rq.query.id != i, "routed-trace query ", i,
                 " carries id ", rq.query.id,
                 "; ids must be dense in arrival order");
        rq.query.arrival = readPod<double>(in);
        fatal_if(i > 0 &&
                     !(rq.query.arrival >=
                       trace.queries[i - 1].query.arrival),
                 "routed-trace query ", i, " arrives at ",
                 rq.query.arrival, ", before query ", i - 1);
        rq.query.samples = readPod<std::uint32_t>(in);
        rq.query.batchIndex = readPod<std::uint64_t>(in);
        rq.totalLookups = readPod<std::uint64_t>(in);
        const auto J = readPod<std::uint64_t>(in);
        rq.lookups.resize(J);
        rq.sampleOffsets.resize(J);
        std::uint64_t lookups = 0;
        for (std::uint64_t j = 0; j < J; ++j) {
            rq.lookups[j] = readVec<std::uint64_t>(in);
            rq.sampleOffsets[j] = readVec<std::uint32_t>(in);
            const std::vector<std::uint32_t> &off =
                rq.sampleOffsets[j];
            fatal_if(off.size() != rq.query.samples + 1ull ||
                         off.back() != rq.lookups[j].size(),
                     "routed-trace query ", i, " feature ", j,
                     " has inconsistent CSR geometry");
            fatal_if(off.front() != 0 ||
                         !std::is_sorted(off.begin(), off.end()),
                     "routed-trace query ", i, " feature ", j,
                     " has sample offsets that do not start at 0",
                     " or that decrease");
            lookups += rq.lookups[j].size();
        }
        fatal_if(rq.totalLookups != lookups, "routed-trace query ",
                 i, " claims ", rq.totalLookups,
                 " lookups but its features hold ", lookups);
    }
    return trace;
}

} // namespace recshard
