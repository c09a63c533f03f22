/**
 * @file
 * Streaming access-frequency sketches for live replanning.
 *
 * The offline EmbProfiler counts every row of every table exactly —
 * affordable over a sampled training store, impossible on a serving
 * hot path. The replan loop instead maintains, per table, a
 * RowFrequencySketch: a count-min sketch (conservative update) for
 * point frequency estimates, a bounded top-k candidate set tracking
 * the rows that matter for pinning, and a KMV (k minimum values)
 * estimator for the distinct-row count that sizes the tail. Every
 * observe() is O(1) amortized: the count-min update is constant
 * work, candidate admission is a hash-map probe, and the candidate
 * prune runs every pruneInterval updates over a set bounded by
 * topK + pruneInterval entries.
 *
 * toCdf() exports the sketch as a FrequencyCdf — the exact type the
 * offline profiler emits — with the top-k rows carrying their estimated
 * counts and the residual mass spread over synthetic tail rows, so
 * every registry planner, assessReshard(), and TierResolver::split()
 * consume live statistics unchanged. LiveProfiler bundles one sketch
 * per table with the pooling/coverage tallies an EmbProfile needs,
 * fed straight from the serving loop's dispatched queries.
 *
 * Determinism: exports sort candidates by (count desc, row asc) — a
 * total order — so unordered-map iteration never reaches a decision
 * (docs/ARCHITECTURE.md, "Virtual-time determinism").
 */

#ifndef RECSHARD_REPLAN_SKETCH_HH
#define RECSHARD_REPLAN_SKETCH_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "recshard/dist/frequency_cdf.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/trace.hh"

namespace recshard {

/** Per-table sketch geometry. */
struct SketchConfig
{
    /** Count-min counters per hash row (rounded up to a power of
     *  two internally). */
    std::uint32_t width = 2048;
    /** Count-min hash rows. */
    std::uint32_t depth = 4;
    /** Hot-row candidates tracked exactly (the pinning frontier). */
    std::uint32_t topK = 1024;
    /** Updates between candidate prunes; the prune touches at most
     *  topK + pruneInterval entries, keeping observe() O(1)
     *  amortized. */
    std::uint32_t pruneInterval = 4096;
    /** KMV sample size for the distinct-row estimate. */
    std::uint32_t kmvSize = 256;

    void validate() const;
};

/** One table's streaming frequency sketch. */
class RowFrequencySketch
{
  public:
    RowFrequencySketch(std::uint64_t hash_size,
                       const SketchConfig &config);

    /** Record one access; O(1) amortized. */
    void observe(std::uint64_t row);

    /** Accesses observed since construction (post-decay scale). */
    std::uint64_t totalObserved() const { return total; }

    /** Count-min point estimate (never underestimates within the
     *  current decay epoch). */
    std::uint64_t estimate(std::uint64_t row) const;

    /** Estimated distinct rows observed (exact below kmvSize). */
    double distinctEstimate() const;

    /** Tracked hot candidates (bounded by topK + pruneInterval). */
    std::size_t candidateCount() const { return candidates.size(); }

    /**
     * Export as a FrequencyCdf: top-k candidates with their
     * estimated counts, residual mass spread uniformly over
     * synthetic tail rows sized by the distinct estimate.
     */
    FrequencyCdf toCdf() const;

    /** Age every counter by half (TinyLFU-style), so the sketch
     *  tracks the recent distribution after a plan handoff. */
    void decay();

  private:
    void prune(std::size_t keep);

    std::uint64_t hashSize;
    SketchConfig cfg;
    std::uint32_t mask = 0;          //!< width - 1 (power of two)
    std::vector<std::uint32_t> counters; //!< depth x width
    std::unordered_map<std::uint64_t, std::uint64_t> candidates;
    std::uint64_t admitThreshold = 1;
    std::uint64_t sincePrune = 0;
    std::uint64_t total = 0;
    /** KMV: the kmvSize smallest 64-bit hashes of distinct rows. */
    std::unordered_set<std::uint64_t> kmv;
    std::uint64_t kmvMax = 0;
};

/**
 * Per-node live profiler: one sketch per table plus the pooling and
 * coverage tallies that complete an EmbProfile. Fed once per
 * dispatched query from the serving loop (O(1) per lookup), exported
 * on demand for drift assessment and replanning.
 */
class LiveProfiler
{
  public:
    LiveProfiler(const ModelSpec &model, const SketchConfig &config);

    /**
     * Record one dispatched query's lookups: the first `kept`
     * ranking candidates of every feature (kept == query.samples
     * for a full-fidelity dispatch).
     */
    void observeQuery(const RoutedQuery &query, std::uint32_t kept);

    /** Export per-table profiles compatible with profileDataset
     *  output. */
    std::vector<EmbProfile> exportProfiles() const;

    /** Queries observed since construction or the last decay. */
    std::uint64_t queriesObserved() const { return queriesV; }

    const RowFrequencySketch &sketch(std::uint32_t table) const
    {
        return sketches[table];
    }

    /** Halve every sketch and tally (rebaseline after a replan). */
    void decay();

  private:
    struct Tally
    {
        std::uint64_t totalSamples = 0;
        std::uint64_t presentSamples = 0;
        std::uint64_t lookups = 0;
    };

    const ModelSpec &model;
    std::vector<RowFrequencySketch> sketches;
    std::vector<Tally> tallies;
    std::uint64_t queriesV = 0;
};

} // namespace recshard

#endif // RECSHARD_REPLAN_SKETCH_HH
