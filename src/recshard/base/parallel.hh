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
 *
 * Each call starts and joins its team afresh: 60-75 µs per call of
 * four trivial items on four workers (RelWithDebInfo, 4-core Xeon
 * VM), against nothing inline. A caller whose items total less work
 * than that passes a min_team that keeps them on its own thread, as
 * the solver's per-EMB and swap-search phases do.
 */

#ifndef RECSHARD_BASE_PARALLEL_HH
#define RECSHARD_BASE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace recshard {

/** Threads a parallelFor over n items may run on, the caller
 *  included: max(1, min(hardware threads, n)). */
std::size_t parallelWorkers(std::size_t n);

/**
 * Call fn(i) once for every i in [0, n) on a team of
 * parallelWorkers(n) threads, the caller included, or inline on the
 * caller alone when n < min_team. fn must be safe to call
 * concurrently for distinct indices. If fn throws, the team stops
 * taking new indices, every thread is joined, and the first
 * exception is rethrown to the caller.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 std::size_t min_team = 2);

/**
 * As parallelFor, but calls fn(worker, i), where worker in
 * [0, parallelWorkers(n)) names the calling thread's team slot (0
 * inline): no two threads run with the same worker at once, so
 * per-worker scratch indexed by it needs no lock.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)> &fn,
                 std::size_t min_team = 2);

} // namespace recshard

#endif // RECSHARD_BASE_PARALLEL_HH
