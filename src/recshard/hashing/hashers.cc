#include "recshard/hashing/hashers.hh"

#include "recshard/base/logging.hh"

namespace recshard {

FeatureHasher::FeatureHasher(std::uint64_t hash_size,
                             std::uint64_t salt, HashKind kind_)
    : size(hash_size), saltV(salt), kindV(kind_),
      mixedSalt(salt * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL)
{
    fatal_if(size == 0, "hash size must be >= 1");
    magic = ~static_cast<unsigned __int128>(0) / size + 1;
}

} // namespace recshard
