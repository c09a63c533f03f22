/**
 * @file
 * Training-data profiling (paper Section 4.1, Fig. 10 phase 1).
 *
 * Streams sampled training batches and accumulates, per EMB:
 * (1) the post-hash value-frequency CDF, (2) the average pooling
 * factor, and (3) the coverage. The paper observes that sampling
 * <= 1% of a production data store suffices; the profiler is
 * agnostic to the sampling rate — callers feed it however many
 * batches they wish.
 *
 * Each EMB is counted by its own EmbProfiler per hash size, which
 * lives only from the EMB's first batch to its finished profile.
 * profileHashSizes therefore holds at most one counter per hash size
 * per worker at a time: peak transient memory is O(workers x hash
 * sizes x min(hashSize, 2^25)) count slots, not the sum of every
 * table's hash size.
 */

#ifndef RECSHARD_PROFILER_PROFILER_HH
#define RECSHARD_PROFILER_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/dist/frequency_cdf.hh"
#include "recshard/hashing/hashers.hh"

namespace recshard {

/** Per-EMB statistics the sharder consumes. */
struct EmbProfile
{
    FrequencyCdf cdf;     //!< post-hash value-frequency CDF
    double avgPool = 0.0; //!< mean lookups per *present* sample
    double coverage = 0.0;//!< fraction of samples feature is present
    std::uint64_t samplesSeen = 0;
    std::uint64_t lookups = 0;

    /** Expected EMB accesses per training sample. */
    double expectedAccessesPerSample() const
    {
        return avgPool * coverage;
    }
};

/** Exact streaming statistics accumulator for one EMB. */
class EmbProfiler
{
  public:
    /**
     * @param hash_size       Rows of the EMB being profiled.
     * @param dense_threshold Tables with hash_size <= threshold use a
     *                        dense count array; larger tables fall
     *                        back to a hash map of touched rows.
     */
    explicit EmbProfiler(std::uint64_t hash_size,
                         std::uint64_t dense_threshold = 1ULL << 25);

    /** Accumulate one batch of this EMB's lookups. */
    void add(const FeatureBatch &batch);

    /**
     * Accumulate one batch of mixed values: each raw value of a
     * rawFeatureBatch replaced by hasher.mix(value). Each is reduced
     * into this EMB's rows as it is counted, so hashers that differ
     * only in hash size count one mixed batch. The hasher's hash size
     * must be this EMB's.
     */
    void add(const FeatureBatch &mixed_batch, const FeatureHasher &hasher);

    /**
     * Build the EMB's profile and release the counter. The
     * accumulator must not be reused afterwards.
     */
    EmbProfile finish();

  private:
    /** The one counting loop: row `map(v)` for each v in indices. */
    template <class Map>
    void count(const FeatureBatch &batch, const Map &map);

    std::uint64_t hashSize;
    bool useDense;
    bool finished = false;
    std::vector<std::uint32_t> dense;
    std::unordered_map<std::uint64_t, std::uint64_t> sparse;
    std::uint64_t presentSamples = 0;
    std::uint64_t totalSamples = 0;
    std::uint64_t lookups = 0;
};

/**
 * Profile `num_samples` samples drawn from the dataset in batches of
 * `batch_size`, using a batch-index region disjoint from training
 * replay, once per hash-size list: result[m][j] profiles EMB j
 * hashed into hash_sizes[m][j] rows under the dataset's salt. That
 * is bit for bit profileDataset of a dataset whose model differs
 * from data's only in hash sizes (RM1-RM3, scaleRm1), yet each
 * feature's batches are drawn and mixed once, then reduced into each
 * hash size as they are counted.
 * EMBs are profiled in parallel (base/parallel.hh), each by one work
 * item from counters to CDFs; the result equals a serial profile. A
 * dense counter is scanned into row-ascending pairs, which the
 * FrequencyCdf ranks in linear time.
 */
std::vector<std::vector<EmbProfile>> profileHashSizes(
    const SyntheticDataset &data,
    const std::vector<std::vector<std::uint64_t>> &hash_sizes,
    std::uint64_t num_samples, std::uint32_t batch_size = 4096);

/** profileHashSizes under the dataset's own hash sizes. */
std::vector<EmbProfile> profileDataset(const SyntheticDataset &data,
                                       std::uint64_t num_samples,
                                       std::uint32_t batch_size = 4096);

} // namespace recshard

#endif // RECSHARD_PROFILER_PROFILER_HH
