#include "recshard/routing/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "recshard/base/logging.hh"

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
 * The materialization loop both trace builders share: `num_queries`
 * arrivals from one LoadGenerator, each query's lookups drawn from
 * the dataset. `before_query(i)` runs before query i is drawn (the
 * drifting trace sets the dataset's month there).
 */
template <class BeforeQuery>
RoutedTrace
materialize(const SyntheticDataset &data, const LoadConfig &load,
            std::uint64_t num_queries, BeforeQuery before_query)
{
    fatal_if(num_queries == 0, "need at least one query to route");
    LoadGenerator generator(load);
    const std::uint32_t J = data.spec().numFeatures();

    RoutedTrace trace;
    trace.queries.resize(num_queries);
    for (std::uint64_t i = 0; i < num_queries; ++i) {
        before_query(i);
        RoutedQuery &rq = trace.queries[i];
        rq.query = generator.next();
        rq.query.id = i; // dense ids in arrival order
        rq.lookups.resize(J);
        rq.sampleOffsets.resize(J);
        for (std::uint32_t j = 0; j < J; ++j) {
            FeatureBatch fb = data.featureBatch(
                j, rq.query.samples, rq.query.batchIndex);
            rq.totalLookups += fb.indices.size();
            rq.lookups[j] = std::move(fb.indices);
            rq.sampleOffsets[j] = std::move(fb.offsets);
        }
    }
    return trace;
}

} // namespace

RoutedTrace
materializeRoutedTrace(const SyntheticDataset &data,
                       const LoadConfig &load,
                       std::uint64_t num_queries)
{
    return materialize(data, load, num_queries, [](std::uint64_t) {});
}

RoutedTrace
materializeDriftingRoutedTrace(SyntheticDataset &data,
                               const LoadConfig &load,
                               std::uint64_t num_queries,
                               const DriftTraceSchedule &schedule)
{
    fatal_if(schedule.months == 0,
             "a drifting trace must span >= 1 month");
    const std::uint32_t saved_month = data.month();
    RoutedTrace trace = materialize(
        data, load, num_queries, [&](std::uint64_t i) {
            data.setMonth(schedule.startMonth +
                          static_cast<std::uint32_t>(
                              i * schedule.months / num_queries));
        });
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
        rq.query.arrival = readPod<double>(in);
        rq.query.samples = readPod<std::uint32_t>(in);
        rq.query.batchIndex = readPod<std::uint64_t>(in);
        rq.totalLookups = readPod<std::uint64_t>(in);
        const auto J = readPod<std::uint64_t>(in);
        rq.lookups.resize(J);
        rq.sampleOffsets.resize(J);
        for (std::uint64_t j = 0; j < J; ++j) {
            rq.lookups[j] = readVec<std::uint64_t>(in);
            rq.sampleOffsets[j] = readVec<std::uint32_t>(in);
            fatal_if(rq.sampleOffsets[j].size() !=
                             rq.query.samples + 1ull ||
                         rq.sampleOffsets[j].back() !=
                             rq.lookups[j].size(),
                     "routed-trace query ", i, " feature ", j,
                     " has inconsistent CSR geometry");
        }
    }
    return trace;
}

} // namespace recshard
