#include "recshard/base/parallel.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "recshard/base/sync.hh"

namespace recshard {

std::size_t
parallelWorkers(std::size_t n)
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, std::min(hw, n));
}

namespace {

using Call = std::function<void(std::size_t, std::size_t)>;

/** One parallelFor call on the team; it lives on the caller's
 *  stack until every participant has left it. */
struct Job
{
    Job(const Call &call_, std::size_t n_, std::size_t workers_)
        : call(call_), n(n_), workers(workers_), errors(workers_)
    {
    }

    /** Run indices as team slot `worker` until none are left. */
    void
    work(std::size_t worker)
    {
        try {
            for (std::size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                call(worker, i);
        } catch (...) {
            errors[worker] = std::current_exception();
            next.store(n); // hand out no further indices
        }
    }

    const Call &call;
    const std::size_t n;
    const std::size_t workers; //!< participants, the caller included
    std::atomic<std::size_t> next{0};
    // One slot per worker, so no two threads write the same one.
    std::vector<std::exception_ptr> errors;
};

/**
 * The process-wide team: threads 1..size() sleep on `wake` between
 * jobs. A job names how many slots take part; the caller is slot 0
 * and waits on `done` for the others. One job runs at a time; a
 * call that finds the team busy runs inline instead of queueing, so
 * a nested call can never wait on the thread it runs on.
 */
class Team
{
  public:
    explicit Team(std::size_t count) : owner(::getpid())
    {
        threads.reserve(count);
        for (std::size_t id = 1; id <= count; ++id) {
            try {
                threads.emplace_back([this, id] { serve(id); });
            } catch (const std::system_error &) {
                break; // out of threads: keep the team started so far
            }
        }
    }

    Team(const Team &) = delete;
    Team &operator=(const Team &) = delete;

    /** Threads beside the caller. */
    std::size_t size() const { return threads.size(); }

    /**
     * Run `job` on slots [0, job.workers) and return true, or return
     * false at once when the team is busy or this process is a fork
     * of the one that started it (a child has none of the parent's
     * threads).
     */
    bool
    tryRun(Job &job)
    {
        if (::getpid() != owner || busy.exchange(true))
            return false;
        {
            MutexLock lock(mu);
            current = &job;
            slots = job.workers;
            running = job.workers - 1;
            ++generation;
        }
        wake.notifyAll();
        job.work(0);
        {
            MutexLock lock(mu);
            while (running != 0)
                done.wait(mu);
            current = nullptr;
        }
        busy.store(false);
        return true;
    }

  private:
    void
    serve(std::size_t id)
    {
        std::uint64_t seen = 0;
        for (;;) {
            Job *job = nullptr;
            {
                MutexLock lock(mu);
                while (generation == seen)
                    wake.wait(mu);
                seen = generation;
                // A slot outside this job's team goes back to sleep
                // without touching the job, which may end any time.
                if (id < slots)
                    job = current;
            }
            if (job == nullptr)
                continue;
            job->work(id);
            MutexLock lock(mu);
            if (--running == 0)
                done.notifyOne();
        }
    }

    const pid_t owner;
    std::atomic<bool> busy{false};
    Mutex mu;
    CondVar wake;
    CondVar done;
    std::uint64_t generation GUARDED_BY(mu) = 0;
    Job *current GUARDED_BY(mu) = nullptr;
    std::size_t slots GUARDED_BY(mu) = 0;
    std::size_t running GUARDED_BY(mu) = 0;
    /** Slots 1..size(); declared last, as they use every member. */
    std::vector<std::thread> threads;
};

/**
 * The team, started by the first call that needs one. It is never
 * destroyed, so its threads are never joined: fatal() may call
 * std::exit on a worker, and a team joined at exit would wait on
 * threads that never return.
 */
Team &
team()
{
    static Team *const t =
        new Team(parallelWorkers(std::thread::hardware_concurrency()) - 1);
    return *t;
}

void
runTeam(std::size_t n, std::size_t min_team, const Call &call)
{
    std::size_t workers = n < min_team ? 1 : parallelWorkers(n);
    if (workers > 1) {
        Team &t = team();
        workers = std::min(workers, t.size() + 1);
        if (workers > 1) {
            Job job(call, n, workers);
            if (t.tryRun(job)) {
                for (const std::exception_ptr &e : job.errors)
                    if (e)
                        std::rethrow_exception(e);
                return;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        call(0, i);
}

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            std::size_t min_team)
{
    runTeam(n, min_team, [&fn](std::size_t, std::size_t i) { fn(i); });
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t, std::size_t)> &fn,
            std::size_t min_team)
{
    runTeam(n, min_team, fn);
}

} // namespace recshard
