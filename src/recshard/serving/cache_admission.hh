/**
 * @file
 * Pluggable admission policies for the serving-path hot-row cache.
 *
 * A plain LRU admits every missed row, so a burst of one-off cold
 * rows evicts recurring warm rows — cache pollution. Frequency-aware
 * admission gates what may enter:
 *
 *   "always"    -- admit every miss (classic LRU; the baseline).
 *   "tinylfu"   -- TinyLFU (Einziger et al.): a count-min sketch of
 *                  recent access frequencies, fronted by a doorkeeper
 *                  bloom filter that keeps one-hit wonders out of the
 *                  sketch. A miss is admitted only when its estimated
 *                  frequency beats the LRU victim's, so a hot row is
 *                  never displaced by a colder one. Counters are
 *                  halved periodically (the "reset" aging scheme) so
 *                  the sketch tracks the recent past, not all time.
 *   "cdf-gated" -- RecShard-native gating: the profiler's per-EMB
 *                  access CDFs are stable and known ahead of time
 *                  (paper Section 3.1), so the cache can simply
 *                  refuse rows that the offline ranking says are
 *                  cold. A row is admitted only if its CDF rank falls
 *                  inside the hottest rowsForFraction(hotQuantile)
 *                  rows of its table. Zero online metadata besides a
 *                  per-table bitset (1 bit per row) over the
 *                  server's own tables; no warm-up period.
 *
 * Policies are selected by name through CacheAdmissionConfig (see
 * ShardServerConfig::admission), the same way planners are selected
 * through the PlannerRegistry — so admission policies are comparable
 * across serving, routing, replan and bench layers.
 *
 * Each ShardServer owns one policy instance next to its LruRowCache
 * and hands it only the CDFs of its own tables (the rest are null),
 * so a node holds one cdf-gated bit per model row in total. Both
 * are touched only by the thread driving that server, so no
 * locking.
 */

#ifndef RECSHARD_SERVING_CACHE_ADMISSION_HH
#define RECSHARD_SERVING_CACHE_ADMISSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "recshard/dist/frequency_cdf.hh"

namespace recshard {

/** TinyLFU sketch and aging knobs ("tinylfu" policy only). */
struct TinyLfuOptions
{
    /**
     * Counters per sketch row; rounded up to a power of two.
     * 0 sizes automatically: 8x the cache capacity (min 64).
     */
    std::uint64_t sketchWidth = 0;
    /**
     * Recorded accesses between aging resets (every counter halved,
     * doorkeeper cleared). 0 sizes automatically: 16x the cache
     * capacity (min 128).
     */
    std::uint64_t agingSampleSize = 0;
    /** Front the sketch with a doorkeeper bloom filter. */
    bool doorkeeper = true;
};

/** Admission-policy selection and knobs for one cache instance. */
struct CacheAdmissionConfig
{
    /** "always", "tinylfu", or "cdf-gated". */
    std::string policy = "always";
    TinyLfuOptions tinylfu;
    /**
     * "cdf-gated": a row is admitted iff it ranks within the hottest
     * rowsForFraction(hotQuantile) rows of its table's CDF. 0 admits
     * nothing (the cache stays empty); 1 admits every profiled row
     * and still denies never-touched rows.
     */
    double hotQuantile = 0.95;
    /**
     * Per-EMB profiled CDFs, indexed by feature id ("cdf-gated"
     * only; borrowed, must outlive the server). A null entry, and
     * any row at or beyond its CDF's hashSize(), admits nothing.
     * ShardServer nulls the tables of other GPUs. Callers fill it
     * from their profiles with collectCdfs().
     */
    std::vector<const FrequencyCdf *> cdfs;
};

/**
 * Decides, per miss, whether a key may enter the cache. Keys are
 * the LruRowCache::rowKey packing (table << 48 | row).
 */
class CacheAdmission
{
  public:
    virtual ~CacheAdmission() = default;

    /** Record one access (hit or miss) for frequency tracking. */
    virtual void onAccess(std::uint64_t /*key*/) {}

    /**
     * Should a missed key enter the cache?
     *
     * @param key    The missed key.
     * @param full   Cache at capacity (admitting evicts `victim`).
     * @param victim LRU key that would be evicted (valid iff full).
     */
    [[nodiscard]] virtual bool admit(std::uint64_t key, bool full,
                                     std::uint64_t victim) = 0;

    /**
     * Estimated recent access frequency of a key (observability and
     * tests; only frequency-tracking policies return non-zero).
     */
    virtual std::uint64_t frequency(std::uint64_t /*key*/) const
    {
        return 0;
    }

    /** Policy name this instance was created under. */
    virtual const char *name() const = 0;
};

/**
 * Build one policy instance by name.
 *
 * @param config        Policy name and knobs; "cdf-gated" requires
 *                      config.cdfs (fatal otherwise).
 * @param capacity_rows Capacity of the cache the policy fronts
 *                      (auto-sizes the TinyLFU sketch).
 */
std::unique_ptr<CacheAdmission>
makeCacheAdmission(const CacheAdmissionConfig &config,
                   std::uint64_t capacity_rows);

/** Registered policy names, in documentation order. */
const std::vector<std::string> &cacheAdmissionPolicyNames();

/**
 * Collect borrowed per-EMB CDF pointers from any range of
 * profile-like objects exposing a `.cdf` member (EmbProfile), for
 * CacheAdmissionConfig::cdfs.
 */
template <typename Profiles>
std::vector<const FrequencyCdf *>
collectCdfs(const Profiles &profiles)
{
    std::vector<const FrequencyCdf *> out;
    out.reserve(profiles.size());
    for (const auto &p : profiles)
        out.push_back(&p.cdf);
    return out;
}

} // namespace recshard

#endif // RECSHARD_SERVING_CACHE_ADMISSION_HH
