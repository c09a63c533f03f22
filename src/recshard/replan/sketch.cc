#include "recshard/replan/sketch.hh"

#include <algorithm>
#include <cmath>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** Stateless 64-bit mix (SplitMix64 finalizer) for sketch hashing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint32_t
ceilPow2(std::uint32_t x)
{
    std::uint32_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/** Total order over (row, count) entries: hottest first, row-id
 *  tie-break — unordered-map iteration order never decides. */
bool
hotterFirst(const std::pair<std::uint64_t, std::uint64_t> &a,
            const std::pair<std::uint64_t, std::uint64_t> &b)
{
    return a.second != b.second ? a.second > b.second
                                : a.first < b.first;
}

} // namespace

void
SketchConfig::validate() const
{
    fatal_if(width == 0, "count-min width must be >= 1");
    fatal_if(depth == 0, "count-min depth must be >= 1");
    fatal_if(topK == 0, "top-k candidate set cannot be empty");
    fatal_if(pruneInterval == 0,
             "candidate prune interval must be >= 1");
    fatal_if(kmvSize < 2, "KMV needs >= 2 minimum values");
}

RowFrequencySketch::RowFrequencySketch(std::uint64_t hash_size,
                                       const SketchConfig &config)
    : hashSize(hash_size), cfg(config)
{
    cfg.validate();
    fatal_if(hashSize == 0, "cannot sketch an empty table");
    const std::uint32_t width = ceilPow2(cfg.width);
    mask = width - 1;
    counters.assign(static_cast<std::size_t>(cfg.depth) * width, 0);
}

void
RowFrequencySketch::observe(std::uint64_t row)
{
    panic_if(row >= hashSize, "row ", row, " outside table of ",
             hashSize, " rows");
    ++total;

    // Conservative count-min update: read the minimum, then raise
    // only the counters sitting at it.
    std::uint32_t est = ~0u;
    for (std::uint32_t d = 0; d < cfg.depth; ++d) {
        const std::size_t slot =
            static_cast<std::size_t>(d) * (mask + 1) +
            (mix64(row ^ (0xd6e8feb86659fd93ULL * (d + 1))) & mask);
        est = std::min(est, counters[slot]);
    }
    const std::uint32_t raised =
        est == ~0u ? est : est + 1; // saturate
    for (std::uint32_t d = 0; d < cfg.depth; ++d) {
        const std::size_t slot =
            static_cast<std::size_t>(d) * (mask + 1) +
            (mix64(row ^ (0xd6e8feb86659fd93ULL * (d + 1))) & mask);
        counters[slot] = std::max(counters[slot], raised);
    }

    // Top-k candidates: exact count once admitted, count-min seed
    // on admission. The threshold tracks the weakest survivor of
    // the last prune so cold rows stop churning the map.
    const auto it = candidates.find(row);
    if (it != candidates.end()) {
        ++it->second;
    } else if (raised >= admitThreshold) {
        candidates.emplace(row, raised);
    }

    // KMV distinct estimate: retain the kmvSize smallest hashes.
    const std::uint64_t h = mix64(row ^ 0x2545f4914f6cdd1dULL);
    if (kmv.size() < cfg.kmvSize) {
        if (kmv.insert(h).second)
            kmvMax = std::max(kmvMax, h);
    } else if (h < kmvMax && kmv.insert(h).second) {
        kmv.erase(kmvMax);
        std::uint64_t next_max = 0;
        // lint:allow(no-unordered-iteration): max over the set, order-insensitive
        for (const std::uint64_t v : kmv)
            next_max = std::max(next_max, v);
        kmvMax = next_max;
    }

    if (++sincePrune >= cfg.pruneInterval) {
        sincePrune = 0;
        prune(cfg.topK);
    }
}

void
RowFrequencySketch::prune(std::size_t keep)
{
    if (candidates.size() <= keep)
        return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(
        // lint:allow(no-unordered-iteration): nth_element by hotterFirst total order below
        candidates.begin(), candidates.end());
    // hotterFirst is a total order (row ids unique), so the kept
    // set is independent of map iteration order.
    std::nth_element(entries.begin(), entries.begin() + keep - 1,
                     entries.end(), hotterFirst);
    entries.resize(keep);
    candidates.clear();
    std::uint64_t weakest = ~0ULL;
    for (const auto &[row, count] : entries) {
        candidates.emplace(row, count);
        weakest = std::min(weakest, count);
    }
    admitThreshold = weakest + 1;
}

std::uint64_t
RowFrequencySketch::estimate(std::uint64_t row) const
{
    const auto it = candidates.find(row);
    if (it != candidates.end())
        return it->second;
    std::uint32_t est = ~0u;
    for (std::uint32_t d = 0; d < cfg.depth; ++d) {
        const std::size_t slot =
            static_cast<std::size_t>(d) * (mask + 1) +
            (mix64(row ^ (0xd6e8feb86659fd93ULL * (d + 1))) & mask);
        est = std::min(est, counters[slot]);
    }
    return est;
}

double
RowFrequencySketch::distinctEstimate() const
{
    if (kmv.size() < cfg.kmvSize)
        return static_cast<double>(kmv.size());
    // k-th minimum of k uniform hashes at fraction kmvMax / 2^64:
    // distinct ~= (k - 1) / that fraction.
    const double frac = static_cast<double>(kmvMax) /
        18446744073709551616.0; // 2^64
    if (frac <= 0.0)
        return static_cast<double>(kmv.size());
    return static_cast<double>(cfg.kmvSize - 1) / frac;
}

FrequencyCdf
RowFrequencySketch::toCdf() const
{
    if (total == 0)
        return FrequencyCdf(hashSize, {});

    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts(
        // lint:allow(no-unordered-iteration): top-K by hotterFirst total order; FrequencyCdf ranks
        candidates.begin(), candidates.end());
    if (counts.size() > cfg.topK) {
        std::nth_element(counts.begin(), counts.begin() + cfg.topK - 1,
                         counts.end(), hotterFirst);
        counts.resize(cfg.topK);
    }

    std::uint64_t head = 0;
    for (const auto &[row, count] : counts)
        head += count;
    // Conservative-update estimates can overshoot the true total;
    // the tail only carries genuinely unattributed mass.
    const std::uint64_t residual = total > head ? total - head : 0;

    if (residual > 0) {
        // Spread the residual over synthetic tail rows: ids are
        // arbitrary cold rows (their true identity is unknown at
        // sketch resolution), sized by the distinct estimate so
        // rowsForFraction() answers stay calibrated.
        const double distinct = std::max(
            distinctEstimate(), static_cast<double>(counts.size()));
        std::uint64_t tail_rows = static_cast<std::uint64_t>(
            std::llround(distinct)) -
            std::min<std::uint64_t>(
                static_cast<std::uint64_t>(std::llround(distinct)),
                counts.size());
        tail_rows = std::max<std::uint64_t>(tail_rows, 1);
        tail_rows = std::min(tail_rows, residual); // counts >= 1
        tail_rows = std::min(tail_rows, hashSize - counts.size());

        std::unordered_set<std::uint64_t> hot_rows;
        hot_rows.reserve(counts.size());
        for (const auto &[row, count] : counts)
            hot_rows.insert(row);

        const std::uint64_t base =
            tail_rows ? residual / tail_rows : 0;
        std::uint64_t extra = tail_rows ? residual % tail_rows : 0;
        std::uint64_t assigned = 0;
        for (std::uint64_t row = 0;
             assigned < tail_rows && row < hashSize; ++row) {
            if (hot_rows.count(row))
                continue;
            std::uint64_t c = base;
            if (extra) {
                ++c;
                --extra;
            }
            counts.emplace_back(row, c);
            ++assigned;
        }
    }
    return FrequencyCdf(hashSize, std::move(counts));
}

void
RowFrequencySketch::decay()
{
    for (std::uint32_t &c : counters)
        c >>= 1;
    // lint:allow(no-unordered-iteration): per-entry halving, order-insensitive
    for (auto it = candidates.begin(); it != candidates.end();) {
        it->second >>= 1;
        if (it->second == 0)
            it = candidates.erase(it);
        else
            ++it;
    }
    total >>= 1;
    admitThreshold = std::max<std::uint64_t>(admitThreshold >> 1, 1);
}

LiveProfiler::LiveProfiler(const ModelSpec &model_,
                           const SketchConfig &config)
    : model(model_)
{
    sketches.reserve(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        sketches.emplace_back(model.features[j].hashSize, config);
    tallies.assign(model.numFeatures(), Tally{});
}

void
LiveProfiler::observeQuery(const RoutedQuery &query,
                           std::uint32_t kept)
{
    panic_if(query.lookups.size() != sketches.size(),
             "query carries ", query.lookups.size(),
             " lookup lists for ", sketches.size(), " tables");
    panic_if(kept == 0 || kept > query.query.samples,
             "query ", query.query.id, " offers ",
             query.query.samples, " candidates; cannot observe ",
             kept);
    ++queriesV;
    for (std::uint32_t j = 0; j < sketches.size(); ++j) {
        const auto &offsets = query.sampleOffsets[j];
        const std::uint32_t limit = offsets[kept];
        for (std::uint32_t i = 0; i < limit; ++i)
            sketches[j].observe(query.lookups[j][i]);
        Tally &t = tallies[j];
        t.totalSamples += kept;
        t.lookups += limit;
        for (std::uint32_t s = 0; s < kept; ++s)
            t.presentSamples += offsets[s + 1] > offsets[s];
    }
}

std::vector<EmbProfile>
LiveProfiler::exportProfiles() const
{
    std::vector<EmbProfile> profiles(sketches.size());
    for (std::uint32_t j = 0; j < sketches.size(); ++j) {
        EmbProfile &p = profiles[j];
        const Tally &t = tallies[j];
        p.cdf = sketches[j].toCdf();
        p.samplesSeen = t.totalSamples;
        p.lookups = t.lookups;
        p.coverage = t.totalSamples
            ? static_cast<double>(t.presentSamples) /
                static_cast<double>(t.totalSamples)
            : 0.0;
        p.avgPool = t.presentSamples
            ? static_cast<double>(t.lookups) /
                static_cast<double>(t.presentSamples)
            : 0.0;
    }
    return profiles;
}

void
LiveProfiler::decay()
{
    for (RowFrequencySketch &s : sketches)
        s.decay();
    for (Tally &t : tallies) {
        t.totalSamples >>= 1;
        t.presentSamples >>= 1;
        t.lookups >>= 1;
    }
    queriesV >>= 1;
}

} // namespace recshard
