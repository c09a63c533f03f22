/**
 * @file
 * Unit tests for the base substrate: logging, RNG, statistics, units,
 * tables, flag parsing, and the parallelFor worker team.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "recshard/base/flags.hh"
#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"
#include "recshard/base/random.hh"
#include "recshard/base/stats.hh"
#include "recshard/base/table.hh"
#include "recshard/base/units.hh"

namespace {

using namespace recshard;

TEST(Logging, PanicAborts)
{
    EXPECT_DEATH(panic("boom ", 42), "panic: boom 42");
}

TEST(Logging, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "fatal: bad config");
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    panic_if(false, "must not fire");
    EXPECT_DEATH(panic_if(1 + 1 == 2, "fires"), "fires");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LE(same, 1);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeUniformly)
{
    Rng rng(99);
    std::vector<int> counts(10, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.uniformInt(0, 9)];
    for (int c : counts) {
        // Each bucket expects 10000; allow 5 sigma of binomial noise.
        EXPECT_NEAR(c, draws / 10, 5 * std::sqrt(draws * 0.1 * 0.9));
    }
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, UniformIntRejectsEmptyRange)
{
    Rng rng(5);
    EXPECT_DEATH(rng.uniformInt(3, 2), "empty");
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStat acc;
    for (int i = 0; i < 200000; ++i)
        acc.push(rng.gaussian(3.0, 2.0));
    EXPECT_NEAR(acc.mean(), 3.0, 0.05);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(321);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_LE(same, 1);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(1);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RunningStat, MatchesClosedForm)
{
    RunningStat acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.push(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(RunningStat, MergeEqualsSequential)
{
    Rng rng(77);
    RunningStat whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.gaussian();
        whole.push(x);
        (i % 2 ? left : right).push(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStat, EmptyAndSingleton)
{
    RunningStat acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
    acc.push(3.5);
    EXPECT_EQ(acc.variance(), 0.0);
    EXPECT_EQ(acc.mean(), 3.5);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.125), 1.5);
}

TEST(Stats, PercentileRejectsBadInput)
{
    EXPECT_EXIT(percentile({}, 0.5), ::testing::ExitedWithCode(1),
                "empty");
    EXPECT_EXIT(percentile({1.0}, 1.5), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(Stats, PearsonOfLinearRelationIsOne)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 50; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 1.0);
    }
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
    for (auto &y : ys)
        y = -y;
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateIsZero)
{
    std::vector<double> xs = {1, 1, 1};
    std::vector<double> ys = {1, 2, 3};
    EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(KiB), "1.00 KiB");
    EXPECT_EQ(formatBytes(3 * GiB + GiB / 2), "3.50 GiB");
}

TEST(Units, FormatBandwidthAndSeconds)
{
    EXPECT_EQ(formatBandwidth(1555.0 * GBps), "1555.0 GB/s");
    EXPECT_EQ(formatSeconds(0.0075), "7.500 ms");
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(4e-6), "4.00 us");
}

TEST(Table, AlignsAndCounts)
{
    TextTable t({"model", "ms"});
    t.addRow({"RM1", fmtDouble(7.48)});
    t.addRow({"RM2", fmtDouble(7.75)});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os, "Table X");
    const std::string s = os.str();
    EXPECT_NE(s.find("Table X"), std::string::npos);
    EXPECT_NE(s.find("| RM1"), std::string::npos);
    EXPECT_NE(s.find("7.48"), std::string::npos);
}

TEST(Table, RowArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "arity");
}

TEST(Table, CsvRoundTrip)
{
    TextTable t({"name", "value"});
    t.addRow({"with,comma", "1"});
    t.addRow({"with\"quote", "2"});
    const std::string path = ::testing::TempDir() + "/recshard_t.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,value");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with,comma\",1");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with\"\"quote\",2");
    std::remove(path.c_str());
}

TEST(Flags, ParsesAllForms)
{
    FlagSet flags("prog");
    flags.addInt("gpus", 16, "trainer count");
    flags.addDouble("scale", 0.0625, "row scale");
    flags.addString("model", "rm1", "model name");
    flags.addBool("verbose", "chatty output");

    const char *argv[] = {
        "prog", "--gpus", "8", "--scale=0.5", "--verbose",
        "--model", "rm3",
    };
    flags.parse(7, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("gpus"), 8);
    EXPECT_DOUBLE_EQ(flags.getDouble("scale"), 0.5);
    EXPECT_EQ(flags.getString("model"), "rm3");
    EXPECT_TRUE(flags.getBool("verbose"));
}

TEST(Flags, DefaultsSurviveEmptyArgv)
{
    FlagSet flags("prog");
    flags.addInt("gpus", 16, "trainer count");
    flags.addBool("verbose", "chatty output");
    const char *argv[] = {"prog"};
    flags.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(flags.getInt("gpus"), 16);
    EXPECT_FALSE(flags.getBool("verbose"));
}

TEST(Flags, UnknownFlagIsFatal)
{
    FlagSet flags("prog");
    flags.addInt("gpus", 16, "trainer count");
    const char *argv[] = {"prog", "--nope", "3"};
    EXPECT_EXIT(flags.parse(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "unknown flag");
}

TEST(Flags, MalformedNumberIsFatal)
{
    FlagSet flags("prog");
    flags.addInt("gpus", 16, "trainer count");
    const char *argv[] = {"prog", "--gpus", "8x"};
    EXPECT_EXIT(flags.parse(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "integer");
}

TEST(Parallel, VisitsEveryIndexExactlyOnce)
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    // n = 0, n = 1, fewer items than workers (when the host has at
    // least three threads), and far more items than workers.
    std::vector<std::size_t> sizes = {0, 1, 64 * hw + 3};
    if (hw >= 3)
        sizes.push_back(hw - 1);
    for (const std::size_t n : sizes) {
        SCOPED_TRACE("n = " + std::to_string(n));
        std::vector<std::atomic<int>> visits(n);
        std::mutex mu;
        std::set<std::thread::id> threads;
        parallelFor(n, [&](std::size_t i) {
            visits[i].fetch_add(1);
            const std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i;
        EXPECT_LE(threads.size(), std::max<std::size_t>(
                                      1, std::min(hw, n)));
    }
}

TEST(Parallel, StartsNoThreadForAtMostOneItem)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (const std::size_t n : {0, 1}) {
        std::size_t calls = 0;
        parallelFor(n, [&](std::size_t) {
            ++calls;
            EXPECT_EQ(std::this_thread::get_id(), caller);
        });
        EXPECT_EQ(calls, n);
    }
}

TEST(Parallel, RethrowsAWorkerException)
{
    std::atomic<std::size_t> calls{0};
    EXPECT_THROW(parallelFor(1000, [&](std::size_t i) {
                     calls.fetch_add(1);
                     if (i == 17)
                         throw std::runtime_error("item 17");
                 }),
                 std::runtime_error);
    // Indices are handed out in order and every handed-out index
    // runs, so 0..17 all ran before the call returned.
    EXPECT_GE(calls.load(), 18u);
}

TEST(Parallel, WorkerSlotsAreExclusive)
{
    const std::size_t n = 5000;
    const std::size_t workers = parallelWorkers(n);
    // Each slot's counter is entered and left by one thread at a
    // time; an overlap would see it busy.
    std::vector<std::atomic<int>> busy(workers);
    std::vector<std::atomic<int>> visits(n);
    std::atomic<bool> overlap{false};
    parallelFor(n, [&](std::size_t w, std::size_t i) {
        ASSERT_LT(w, workers);
        if (busy[w].fetch_add(1) != 0)
            overlap = true;
        visits[i].fetch_add(1);
        busy[w].fetch_sub(1);
    });
    EXPECT_FALSE(overlap.load());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(Parallel, RunsInlineBelowTheMinimumTeamSize)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    parallelFor(
        100,
        [&](std::size_t w, std::size_t i) {
            EXPECT_EQ(w, 0u);
            EXPECT_EQ(i, calls); // inline runs in index order
            ++calls;
            EXPECT_EQ(std::this_thread::get_id(), caller);
        },
        101);
    EXPECT_EQ(calls, 100u);
}

/**
 * Run `workers` items that each hold their thread until every item
 * has started, so each team slot takes exactly one, and return the
 * threads that ran them. Fails rather than hangs if the team never
 * fills.
 */
std::set<std::thread::id>
threadsOfAFullTeam(std::size_t workers)
{
    std::atomic<std::size_t> arrived{0};
    std::mutex mu;
    std::set<std::thread::id> threads;
    parallelFor(workers, [&](std::size_t) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < workers &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        const std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(arrived.load(), workers);
    return threads;
}

TEST(Parallel, TeamThreadsPersistAcrossCalls)
{
    const std::size_t workers = parallelWorkers(1 << 20);
    const std::set<std::thread::id> first = threadsOfAFullTeam(workers);
    EXPECT_EQ(first.size(), workers);
    EXPECT_EQ(first.count(std::this_thread::get_id()), 1u);
    // No thread is started per call: the next call runs on the same
    // threads.
    EXPECT_EQ(threadsOfAFullTeam(workers), first);
}

TEST(Parallel, NestedCallRunsInline)
{
    const std::size_t n = 8 * parallelWorkers(1 << 20);
    std::vector<std::atomic<int>> visits(n * 100);
    std::atomic<bool> moved{false};
    parallelFor(n, [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        parallelFor(100, [&](std::size_t w, std::size_t k) {
            if (w != 0 || std::this_thread::get_id() != outer)
                moved = true;
            visits[i * 100 + k].fetch_add(1);
        });
    });
    EXPECT_FALSE(moved.load());
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ConcurrentCallersEachVisitEveryIndexOnce)
{
    // One caller gets the team, the other runs inline (or each in
    // turn gets it): either way every index of each call runs once.
    constexpr std::size_t kItems = 5000;
    constexpr int kRounds = 50;
    std::vector<std::atomic<int>> visits[2] = {
        std::vector<std::atomic<int>>(kItems),
        std::vector<std::atomic<int>>(kItems)};
    std::vector<std::thread> callers;
    for (int c = 0; c < 2; ++c)
        callers.emplace_back([&visits, c] {
            for (int r = 0; r < kRounds; ++r)
                parallelFor(kItems, [&](std::size_t i) {
                    visits[c][i].fetch_add(1);
                });
        });
    for (std::thread &t : callers)
        t.join();
    for (int c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < kItems; ++i)
            EXPECT_EQ(visits[c][i].load(), kRounds)
                << "caller " << c << " index " << i;
}

TEST(Parallel, ForkedChildRunsTeamCallsInline)
{
    // The parent's team exists before the fork; the child has none of
    // its threads, so a team call there must run inline, not hang.
    std::atomic<std::size_t> warm{0};
    parallelFor(1000, [&](std::size_t) { warm.fetch_add(1); });
    ASSERT_EQ(warm.load(), 1000u);
    EXPECT_EXIT(
        {
            std::vector<int> visits(1000);
            parallelFor(visits.size(),
                        [&](std::size_t i) { ++visits[i]; });
            const bool once = std::all_of(visits.begin(), visits.end(),
                                          [](int v) { return v == 1; });
            std::exit(once ? 0 : 2);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Parallel, FatalInAnItemExitsWithOne)
{
    // A re-executed child starts its own team, so the fatal runs on
    // one of its workers: std::exit must not wait on the caller or
    // join the team.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto fatal_on_a_worker = [] {
        const std::size_t n = 1000;
        std::atomic<bool> fired{false};
        parallelFor(n, [n, &fired](std::size_t w, std::size_t) {
            if (parallelWorkers(n) == 1)
                fatal("item failed on worker 0");
            if (w != 0) {
                // One fatal only: two threads in std::exit at once race.
                if (!fired.exchange(true))
                    fatal("item failed on worker > 0");
                return;
            }
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::seconds(10);
            while (std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            fatal("no worker took an item");
        });
    };
    EXPECT_EXIT(fatal_on_a_worker(), ::testing::ExitedWithCode(1),
                parallelWorkers(1000) == 1
                    ? "item failed on worker 0"
                    : "item failed on worker > 0");
}

} // namespace
