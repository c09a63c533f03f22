/**
 * @file
 * A fixed worker team for independent work items.
 *
 * The calling thread works as one member of the team, so n <= 1 (or
 * a single-core host) runs inline and starts no thread. Workers take
 * the next index from one atomic counter, so uneven items balance
 * themselves, and every thread is joined before parallelFor
 * returns.
 *
 * Which worker runs an index, and in what order indices finish, is
 * unspecified. A caller that needs a deterministic result writes
 * each item's output to its own slot (or to state no other index
 * touches) and combines the slots after the call, in index order.
 */

#ifndef RECSHARD_BASE_PARALLEL_HH
#define RECSHARD_BASE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace recshard {

/**
 * Call fn(i) once for every i in [0, n) on a team of
 * max(1, min(hardware threads, n)) threads, the caller included.
 * fn must be safe to call concurrently for distinct indices. If fn
 * throws, the team stops taking new indices, every thread is
 * joined, and the first exception is rethrown to the caller.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

} // namespace recshard

#endif // RECSHARD_BASE_PARALLEL_HH
