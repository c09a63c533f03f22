#include "recshard/serving/cache_admission.hh"

#include <algorithm>

#include "recshard/base/logging.hh"
#include "recshard/hashing/hashers.hh"

namespace recshard {

namespace {

/** Classic LRU behavior: every miss enters the cache. */
class AlwaysAdmit final : public CacheAdmission
{
  public:
    bool
    admit(std::uint64_t, bool, std::uint64_t) override
    {
        return true;
    }

    const char *name() const override { return "always"; }
};

std::uint64_t
nextPow2(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/**
 * TinyLFU: count-min sketch + doorkeeper + periodic halving.
 *
 * Counters saturate at 15 (the 4-bit ceiling of the original
 * design): admission only ever compares candidate vs. victim, so
 * resolution beyond "clearly hot" is wasted, and a low ceiling
 * makes the halving reset forget stale popularity faster.
 */
class TinyLfuAdmission final : public CacheAdmission
{
  public:
    TinyLfuAdmission(const TinyLfuOptions &opt,
                     std::uint64_t capacity_rows)
        : width(nextPow2(opt.sketchWidth
                             ? opt.sketchWidth
                             : std::max<std::uint64_t>(
                                   64, 8 * capacity_rows))),
          mask(width - 1),
          sample(opt.agingSampleSize
                     ? opt.agingSampleSize
                     : std::max<std::uint64_t>(128,
                                               16 * capacity_rows)),
          useDoorkeeper(opt.doorkeeper)
    {
        counters.assign(kDepth * width, 0);
        if (useDoorkeeper)
            door.assign(width, false);
    }

    void
    onAccess(std::uint64_t key) override
    {
        if (useDoorkeeper && !doorHas(key)) {
            // First sighting since the last reset: park it in the
            // doorkeeper; only repeat visitors reach the sketch.
            doorAdd(key);
        } else {
            for (std::uint32_t d = 0; d < kDepth; ++d) {
                std::uint8_t &c = counters[slot(d, key)];
                if (c < kMaxCount)
                    ++c;
            }
        }
        if (++ops >= sample)
            age();
    }

    bool
    admit(std::uint64_t key, bool full,
          std::uint64_t victim) override
    {
        // A filling cache cannot be polluted — nothing is evicted.
        if (!full)
            return true;
        return frequency(key) > frequency(victim);
    }

    std::uint64_t
    frequency(std::uint64_t key) const override
    {
        std::uint64_t est = kMaxCount;
        for (std::uint32_t d = 0; d < kDepth; ++d)
            est = std::min<std::uint64_t>(est,
                                          counters[slot(d, key)]);
        if (useDoorkeeper && doorHas(key))
            ++est;
        return est;
    }

    const char *name() const override { return "tinylfu"; }

  private:
    static constexpr std::uint8_t kMaxCount = 15;

    std::size_t
    slot(std::uint32_t d, std::uint64_t key) const
    {
        // Independent hashes: salt the bijective mixer per row.
        const std::uint64_t h =
            mixSplitMix64(key ^ (0x9e3779b97f4a7c15ULL * (d + 1)));
        return d * width + (h & mask);
    }

    std::size_t
    doorBit(std::uint64_t key, std::uint64_t salt) const
    {
        return mixSplitMix64(key + salt) & mask;
    }

    bool
    doorHas(std::uint64_t key) const
    {
        return door[doorBit(key, 0x71ULL)] &&
            door[doorBit(key, 0xb5ULL)];
    }

    void
    doorAdd(std::uint64_t key)
    {
        door[doorBit(key, 0x71ULL)] = true;
        door[doorBit(key, 0xb5ULL)] = true;
    }

    /** Reset aging: halve every counter, clear the doorkeeper. */
    void
    age()
    {
        for (std::uint8_t &c : counters)
            c = static_cast<std::uint8_t>(c >> 1);
        if (useDoorkeeper)
            std::fill(door.begin(), door.end(), false);
        ops = 0;
    }

    /** Count-min sketch rows (independent hash functions). */
    static constexpr std::uint32_t kDepth = 4;
    const std::uint64_t width;
    const std::uint64_t mask;
    const std::uint64_t sample;
    const bool useDoorkeeper;
    std::vector<std::uint8_t> counters; //!< kDepth x width
    std::vector<bool> door;             //!< doorkeeper bloom bits
    std::uint64_t ops = 0;              //!< accesses since aging
};

/**
 * CDF-gated: admit only rows the offline profile ranks inside the
 * hottest rowsForFraction(hotQuantile) of their table. The hot set
 * is one bit per row of the table (the TierResolver::hot form), so
 * admit is a bounds-checked bit test.
 */
class CdfGatedAdmission final : public CacheAdmission
{
  public:
    CdfGatedAdmission(double quantile,
                      const std::vector<const FrequencyCdf *> &cdfs)
    {
        hot.reserve(cdfs.size());
        for (const FrequencyCdf *cdf : cdfs) {
            std::vector<bool> rows;
            if (cdf) {
                rows.assign(cdf->hashSize(), false);
                const std::uint64_t k =
                    cdf->rowsForFraction(quantile);
                const auto &ranked = cdf->rankedRows();
                for (std::uint64_t r = 0; r < k; ++r)
                    rows[ranked[r]] = true;
            }
            hot.push_back(std::move(rows));
        }
    }

    bool
    admit(std::uint64_t key, bool, std::uint64_t) override
    {
        const std::uint64_t table = key >> 48;
        panic_if(table >= hot.size(), "cache key table ", table,
                 " has no profiled CDF (", hot.size(), " tables)");
        constexpr std::uint64_t kRowMask = (1ULL << 48) - 1;
        const std::vector<bool> &rows = hot[table];
        const std::uint64_t row = key & kRowMask;
        return row < rows.size() && rows[row];
    }

    const char *name() const override { return "cdf-gated"; }

  private:
    /** Per table: bit r set iff row r is hot; empty if no CDF. */
    std::vector<std::vector<bool>> hot;
};

} // namespace

std::unique_ptr<CacheAdmission>
makeCacheAdmission(const CacheAdmissionConfig &config,
                   std::uint64_t capacity_rows)
{
    if (config.policy == "always")
        return std::make_unique<AlwaysAdmit>();
    if (config.policy == "tinylfu")
        return std::make_unique<TinyLfuAdmission>(config.tinylfu,
                                                  capacity_rows);
    if (config.policy == "cdf-gated") {
        fatal_if(config.hotQuantile < 0.0 ||
                     config.hotQuantile > 1.0,
                 "cdf-gated hot quantile ", config.hotQuantile,
                 " outside [0,1]");
        fatal_if(config.cdfs.empty(),
                 "cdf-gated admission needs per-EMB profiled CDFs "
                 "(CacheAdmissionConfig::cdfs; see collectCdfs)");
        return std::make_unique<CdfGatedAdmission>(
            config.hotQuantile, config.cdfs);
    }
    fatal("unknown cache admission policy '", config.policy,
          "'; known policies: always, tinylfu, cdf-gated");
}

const std::vector<std::string> &
cacheAdmissionPolicyNames()
{
    static const std::vector<std::string> names = {
        "always", "tinylfu", "cdf-gated"};
    return names;
}

} // namespace recshard
