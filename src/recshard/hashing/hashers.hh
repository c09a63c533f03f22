/**
 * @file
 * Feature hashing: raw categorical values to embedding-table rows.
 *
 * Industry DLRMs bound each EMB to a fixed hash size and hash raw
 * sparse-feature values into it (paper Section 2). The hash must be
 * cheap, deterministic, and well mixed; we provide the SplitMix64
 * and Murmur3 finalizers, both of which are bijective 64-bit mixers
 * (so collisions come only from the modulo reduction, exactly like a
 * production random hash).
 */

#ifndef RECSHARD_HASHING_HASHERS_HH
#define RECSHARD_HASHING_HASHERS_HH

#include <cstdint>

namespace recshard {

/** SplitMix64 finalizer: bijective 64-bit mix. */
inline std::uint64_t
mixSplitMix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Murmur3 fmix64 finalizer: bijective 64-bit mix. */
inline std::uint64_t
mixMurmur3(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/** Selectable mixer family. */
enum class HashKind { SplitMix64, Murmur3 };

/**
 * Hashes raw categorical ids into [0, hash_size).
 *
 * A per-table salt decorrelates tables that ingest overlapping raw
 * id spaces, mirroring independent hash functions per EMB.
 */
class FeatureHasher
{
  public:
    /**
     * @param hash_size Output range (the EMB row count); >= 1.
     * @param salt      Per-table salt.
     * @param kind      Mixer family.
     */
    FeatureHasher(std::uint64_t hash_size, std::uint64_t salt = 0,
                  HashKind kind = HashKind::SplitMix64);

    /** Map one raw categorical value to an EMB row. */
    std::uint64_t operator()(std::uint64_t raw_value) const
    {
        return reduce(mix(raw_value));
    }

    /**
     * The salted 64-bit mix of a raw value, before reduce(). It reads
     * no hash size, so hashers that share a salt and kind mix alike.
     */
    std::uint64_t mix(std::uint64_t raw_value) const
    {
        return kindV == HashKind::SplitMix64
            ? mixSplitMix64(raw_value ^ mixedSalt)
            : mixMurmur3(raw_value ^ mixedSalt);
    }

    std::uint64_t hashSize() const { return size; }
    std::uint64_t salt() const { return saltV; }
    HashKind kind() const { return kindV; }

    /**
     * x % hashSize() without a divide: Lemire, Kaser and Kurz's
     * direct remainder with the 128-bit magic ceil(2^128 / size),
     * exact for every 64-bit x and every size >= 1 (the magic wraps
     * to 0 at size 1, which yields 0).
     */
    std::uint64_t reduce(std::uint64_t x) const
    {
        using u128 = unsigned __int128;
        const u128 low = magic * x; // (magic * x) mod 2^128
        const u128 lo =
            static_cast<u128>(static_cast<std::uint64_t>(low)) * size;
        const u128 hi = static_cast<u128>(
            static_cast<std::uint64_t>(low >> 64)) * size;
        return static_cast<std::uint64_t>((hi + (lo >> 64)) >> 64);
    }

  private:
    std::uint64_t size;
    std::uint64_t saltV;
    HashKind kindV;
    std::uint64_t mixedSalt; //!< the salt as mixed into every key
    unsigned __int128 magic; //!< ceil(2^128 / size) mod 2^128
};

} // namespace recshard

#endif // RECSHARD_HASHING_HASHERS_HH
