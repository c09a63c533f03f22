#include "recshard/serving/lru_cache.hh"

#include "recshard/serving/cache_admission.hh"

namespace recshard {

LruRowCache::LruRowCache(std::uint64_t capacity_rows,
                         CacheAdmission *admission_)
    : capacityV(capacity_rows), admission(admission_)
{
    fatal_if(capacityV >= kNil, "LRU cache capacity ", capacityV,
             " rows does not fit a 32-bit entry index");
    if (capacityV == 0)
        return;
    keys.resize(capacityV);
    prev.resize(capacityV);
    next.resize(capacityV);
    // The slot table is the smallest power of two of at least
    // kSlotsPerRow x capacity, so its load factor is <= 1/8. At that
    // load almost every probe in findSlot and eraseSlot ends at the
    // key's home slot, leaving hit vs. miss as the only branch that
    // depends on the data. It costs 32-64 bytes of index per
    // cached row (16 KB for 500 rows, 128 KB for 4096).
    unsigned bits = 1;
    while ((std::uint64_t{1} << bits) < kSlotsPerRow * capacityV)
        ++bits;
    slots.assign(std::size_t{1} << bits, kNil);
    slotMask = slots.size() - 1;
    slotShift = 64 - bits;
}

std::size_t
LruRowCache::findSlot(std::uint64_t key) const
{
    std::size_t s = home(key);
    while (slots[s] != kNil && keys[slots[s]] != key)
        s = (s + 1) & slotMask;
    return s;
}

void
LruRowCache::eraseSlot(std::size_t slot)
{
    // Backward-shift deletion: walk the probe chain after the hole
    // and move back every entry whose home does not lie strictly
    // after the hole (cyclically), so no lookup ever stops early.
    std::size_t hole = slot;
    for (std::size_t s = (slot + 1) & slotMask; slots[s] != kNil;
         s = (s + 1) & slotMask) {
        const std::size_t h = home(keys[slots[s]]);
        if (((s - h) & slotMask) >= ((s - hole) & slotMask)) {
            slots[hole] = slots[s];
            hole = s;
        }
    }
    slots[hole] = kNil;
}

void
LruRowCache::unlink(std::uint32_t e)
{
    if (prev[e] != kNil)
        next[prev[e]] = next[e];
    else
        head = next[e];
    if (next[e] != kNil)
        prev[next[e]] = prev[e];
    else
        tail = prev[e];
}

void
LruRowCache::pushFront(std::uint32_t e)
{
    prev[e] = kNil;
    next[e] = head;
    if (head != kNil)
        prev[head] = e;
    else
        tail = e;
    head = e;
}

bool
LruRowCache::touch(std::uint64_t key)
{
    if (capacityV == 0)
        return false;
    if (admission)
        admission->onAccess(key);
    std::size_t s = findSlot(key);
    if (slots[s] != kNil) {
        const std::uint32_t e = slots[s];
        if (e != head) {
            unlink(e);
            pushFront(e);
        }
        ++hitsV;
        return true;
    }
    ++missesV;
    const bool full = sizeV >= capacityV;
    if (admission &&
        !admission->admit(key, full, full ? keys[tail] : 0)) {
        ++rejectedV;
        return false;
    }
    std::uint32_t e;
    if (full) {
        // Recycle the LRU entry. Its removal may shift the probe
        // chain `key` ends in, so probe again afterwards.
        e = tail;
        eraseSlot(findSlot(keys[e]));
        unlink(e);
        s = findSlot(key);
    } else {
        e = static_cast<std::uint32_t>(sizeV++);
    }
    keys[e] = key;
    pushFront(e);
    slots[s] = e;
    return false;
}

double
LruRowCache::hitRate() const
{
    const std::uint64_t total = hitsV + missesV;
    return total ? static_cast<double>(hitsV) /
            static_cast<double>(total)
                 : 0.0;
}

} // namespace recshard
