/**
 * @file
 * LRU hot-row cache for the serving path.
 *
 * A RecShard plan pins each EMB's *statistically* hottest rows in
 * HBM; live traffic additionally has short-term temporal locality
 * the offline CDF cannot see. Serving systems exploit it with a
 * small software cache in front of the slow tier (RecNMP and RecSSD
 * both report high hit rates from exactly this effect): a UVM-tier
 * lookup that hits the cache is served at HBM speed. Each GPU
 * server owns one cache instance, so no locking is needed — only
 * the thread driving that server touches it.
 *
 * The cache is array-backed: the recency list is a doubly linked
 * list of 32-bit indices over a fixed array of entries, and the key
 * index is an open-addressed power-of-two slot table (linear
 * probing, backward-shift deletion) over the same entries. The slot
 * table holds at least 8 slots per cached row, so its load factor
 * is at most 1/8: almost every probe ends at the key's home slot,
 * and a miss's three probes (the victim's slot, its shift-delete,
 * the new key's slot) cost about one slot read each. The price is
 * 32-64 bytes of index per cached row. All of it is allocated once,
 * in the constructor, so a touch never allocates and never chases a
 * heap node.
 *
 * What may *enter* the cache is delegated to a CacheAdmission
 * policy (cache_admission.hh): a plain LRU admits every miss, so
 * one-off cold rows evict recurring warm rows; frequency-aware
 * admission (TinyLFU or CDF-gated) refuses the cold rows and keeps
 * the hit rate up at equal capacity.
 */

#ifndef RECSHARD_SERVING_LRU_CACHE_HH
#define RECSHARD_SERVING_LRU_CACHE_HH

#include <cstdint>
#include <vector>

#include "recshard/base/logging.hh"

namespace recshard {

class CacheAdmission;

/**
 * Fixed-capacity LRU set of (table, row) keys, stored in flat
 * arrays sized once at construction (no per-insert allocation).
 */
class LruRowCache
{
  public:
    /**
     * @param capacity_rows Rows the cache can hold; 0 disables.
     *                      Must fit a 32-bit entry index. The slot
     *                      table is sized at the smallest power of
     *                      two >= 8x this (load <= 1/8, 32-64 bytes
     *                      of index per row: 16 KB at 500 rows).
     * @param admission     Optional admission gate consulted on
     *                      every miss (borrowed; must outlive the
     *                      cache). Null admits everything.
     */
    explicit LruRowCache(std::uint64_t capacity_rows,
                         CacheAdmission *admission = nullptr);

    /**
     * Look up a key, promoting it to most-recently-used; on a miss
     * the key is inserted (evicting the LRU entry when full) if the
     * admission policy allows it.
     *
     * @return true on a hit.
     */
    [[nodiscard]] bool touch(std::uint64_t key);

    /** Compose the cache key for one EMB row. */
    static std::uint64_t
    rowKey(std::uint32_t table, std::uint64_t row)
    {
        // The table id lives in the top 16 bits; the packing
        // silently collides outside these bounds, so fail loudly
        // instead (production hash sizes stay far below 2^48).
        panic_if(table >= (1u << 16), "cache key table id ", table,
                 " does not fit in 16 bits");
        panic_if(row >= (1ULL << 48), "cache key row ", row,
                 " does not fit in 48 bits");
        return (static_cast<std::uint64_t>(table) << 48) | row;
    }

    bool enabled() const { return capacityV > 0; }
    std::uint64_t capacity() const { return capacityV; }
    std::uint64_t size() const { return sizeV; }
    std::uint64_t hits() const { return hitsV; }
    std::uint64_t misses() const { return missesV; }
    /** Misses the admission policy refused to cache. */
    std::uint64_t rejected() const { return rejectedV; }

    /** Hits over all touches; 0 when untouched. */
    double hitRate() const;

  private:
    /** Null link and empty slot. */
    static constexpr std::uint32_t kNil = UINT32_MAX;
    /** Minimum slot-table slots per cached row (load <= 1/8). */
    static constexpr std::uint64_t kSlotsPerRow = 8;

    /** Home slot of a key (Fibonacci hashing: top bits of the
     *  golden-ratio product). */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> slotShift);
    }

    /** Slot holding `key`, or the empty slot that ends its probe. */
    std::size_t findSlot(std::uint64_t key) const;
    /** Empty a slot, shifting later probe-chain members back. */
    void eraseSlot(std::size_t slot);
    void unlink(std::uint32_t e);
    void pushFront(std::uint32_t e);

    std::uint64_t capacityV;
    CacheAdmission *admission; //!< borrowed; may be null
    std::vector<std::uint64_t> keys; //!< entry -> key
    std::vector<std::uint32_t> prev; //!< entry -> more recent entry
    std::vector<std::uint32_t> next; //!< entry -> less recent entry
    std::vector<std::uint32_t> slots; //!< key index: entry or kNil
    std::size_t slotMask = 0;
    unsigned slotShift = 0;
    std::uint32_t head = kNil; //!< MRU entry
    std::uint32_t tail = kNil; //!< LRU entry
    std::uint64_t sizeV = 0;
    std::uint64_t hitsV = 0;
    std::uint64_t missesV = 0;
    std::uint64_t rejectedV = 0;
};

} // namespace recshard

#endif // RECSHARD_SERVING_LRU_CACHE_HH
