/**
 * @file
 * Measurement harness shared by every perfbench workload: reducers,
 * host clocks, in-process pass loops, span tracing, correctness
 * bookkeeping, and the one-line JSON result.
 *
 * Host-time metrics are only ever taken as the median of repeated
 * in-process passes after an untimed warm-up pass; a single short
 * window on a shared machine moves by several percent from process
 * to process, which a median over many seconds of work absorbs.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

// ------------------------------------------------------------ reducers

/** Median of a sample (mean of the middle pair when even); 0 if
 *  empty. */
double median(std::vector<double> xs);

/** First, second and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(xs, n=4), so the steadiness report and the
 * benchmark agree on what a spread is. Needs at least two values.
 */
Quartiles quartiles(std::vector<double> xs);

/** A latency percentile together with the sample it came from. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over (served queries). */
    std::uint64_t count = 0;
    /** Samples strictly above the percentile's rank. */
    std::uint64_t beyond = 0;
};

/**
 * Nearest-rank percentile: the smallest value with at least
 * q * n values at or below it. `beyond` counts the samples ranked
 * above it, so a caller can tell whether the sample supports q.
 */
Percentile percentile(std::vector<double> xs, double q);

// --------------------------------------------------------------- spans

/** One traced call: [start, end) in ns since the tracer's epoch. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in Tracer::spans(); -1 at top. */
    int parent = -1;
    /** Pass the span belongs to (0 = set-up, then 1, 2, ...). */
    std::uint32_t pass = 0;
};

/** Per-name totals over a set of spans. */
struct SelfTime
{
    double totalSeconds = 0.0;
    /** Total minus the part covered by direct child spans. */
    double selfSeconds = 0.0;
    std::uint64_t calls = 0;

    double perCallSeconds() const
    {
        return calls ? totalSeconds / static_cast<double>(calls) : 0.0;
    }
};

/**
 * Records spans around calls into the program under test. Spans
 * stay in memory until write(); a disabled tracer records nothing
 * and a Scope over it costs one branch.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *tracer, int index) : tracer(tracer), index(index)
        {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope();

      private:
        Tracer *tracer;
        int index;
    };

    explicit Tracer(bool enabled);

    /** Open a span that closes when the returned Scope dies. */
    [[nodiscard]] Scope span(const char *name);

    /**
     * Start timed pass `pass` (0 is the warm-up). The warm-up and
     * odd passes record spans and even passes do not, so the two
     * halves of a traced run give the tracing overhead.
     */
    void beginPass(std::uint32_t pass)
    {
        passV = pass;
        rec = pass == 0 || pass % 2 == 1;
    }
    /** Record every span from here on under `pass` (the probes). */
    void beginProbes(std::uint32_t pass)
    {
        passV = pass;
        rec = true;
    }

    const std::vector<Span> &spans() const { return all; }

    /** Self time per span name over spans whose pass is in
     *  [first_pass, last_pass]. */
    std::map<std::string, SelfTime>
    selfTimes(std::uint32_t first_pass, std::uint32_t last_pass) const;

    /** Write spans as Chrome trace-event JSON (one complete event
     *  per span; pid 1, tid = pass). */
    void write(std::ostream &out) const;

  private:
    std::int64_t nowNs() const;

    bool on;
    bool rec = true;
    std::uint32_t passV = 0;
    Clock::time_point epoch;
    std::vector<Span> all;
    int open = -1;
};

// -------------------------------------------------------------- checks

/** Correctness ledger: every check counts as one attempt. */
class Checks
{
  public:
    /** Record one check; a failure is reported on stderr. */
    bool expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attemptedV; }
    std::uint64_t failed() const { return failedV; }

  private:
    std::uint64_t attemptedV = 0;
    std::uint64_t failedV = 0;
};

// ------------------------------------------------------------- results

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered name -> metric map. */
using Metrics = std::map<std::string, Metric>;

/** Print the result line: {"correct", "attempted", "failed",
 *  "metrics"}, numbers with all their digits. */
void printResult(std::ostream &out, const Checks &checks,
                 const Metrics &metrics);

/** Peak resident set of this process, MB. */
double peakRssMb();
/** Current resident set of this process, MB. */
double currentRssMb();

// ---------------------------------------------------------- pass loops

/** What one timed pass measured. */
struct PassSample
{
    /** Host seconds per named window (e.g. "plan", "main"). */
    std::map<std::string, double> hostSeconds;
    /** Virtual (model-output) values; must repeat bit-exactly. */
    std::map<std::string, double> virtuals;
};

/** The pass loop's outcome. */
struct PassSeries
{
    PassSample warmup;
    std::vector<PassSample> timed;

    /** One host window's seconds, per timed pass. */
    std::vector<double> windows(const std::string &window) const;
    /** Median over timed passes of one host window. */
    double medianHost(const std::string &window) const;
};

/**
 * Run one untimed warm-up pass, then timed passes until at least
 * `seconds` of wall time and `min_passes` passes have elapsed.
 * `pass` receives the 1-based pass number (0 for the warm-up).
 */
PassSeries runPasses(double seconds, std::uint32_t min_passes,
                     const std::function<PassSample(std::uint32_t)>
                         &pass);

/**
 * Compare every timed pass's virtual values with the warm-up's,
 * bit for bit; one check per pass.
 */
void checkVirtualsRepeat(const PassSeries &series, Checks &checks);

/**
 * Tracing overhead from a traced run whose odd passes record spans
 * and even passes do not: median traced over median untraced "main"
 * window, minus 1. `lookups` is the work of one pass, for the
 * printed throughputs.
 */
double tracingOverhead(const PassSeries &series, double lookups);

/** Median of `repeats` timed calls of `setup` (each call rebuilds
 *  from scratch). */
double medianSetupSeconds(std::uint32_t repeats,
                          const std::function<void()> &setup);

/** One line per host metric: its windows' count, shortest, total,
 *  quartiles and values. The steadiness report parses it to flag
 *  metrics taken from a single short window. */
void printWindows(std::ostream &out, const std::string &metric,
                  const std::vector<double> &windows);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
