#include "recshard/base/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace recshard {

std::size_t
parallelWorkers(std::size_t n)
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, std::min(hw, n));
}

namespace {

/** The team both parallelFor overloads run: call(worker, i). */
template <class Call>
void
runTeam(std::size_t n, std::size_t min_team, const Call &call)
{
    const std::size_t workers = n < min_team ? 1 : parallelWorkers(n);
    if (workers == 1) {
        for (std::size_t i = 0; i < n; ++i)
            call(0, i);
        return;
    }

    std::atomic<std::size_t> next{0};
    // One slot per worker, so no two threads write the same one.
    std::vector<std::exception_ptr> errors(workers);
    const auto work = [&](std::size_t worker) {
        try {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                call(worker, i);
        } catch (...) {
            errors[worker] = std::current_exception();
            next.store(n); // hand out no further indices
        }
    };

    std::vector<std::thread> team;
    team.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
        try {
            team.emplace_back(work, w);
        } catch (const std::system_error &) {
            break; // out of threads: the team started so far finishes
        }
    }
    work(0);
    for (std::thread &t : team)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            std::size_t min_team)
{
    runTeam(n, min_team, [&](std::size_t, std::size_t i) { fn(i); });
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t, std::size_t)> &fn,
            std::size_t min_team)
{
    runTeam(n, min_team, fn);
}

} // namespace recshard
