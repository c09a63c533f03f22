#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

Quartiles
quartiles(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const auto ld = static_cast<std::int64_t>(xs.size());
    Quartiles q;
    if (ld == 0)
        return q;
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = xs[0];
        return q;
    }
    const std::int64_t m = ld + 1;
    double out[3];
    for (std::int64_t i = 1; i <= 3; ++i) {
        std::int64_t j = i * m / 4;
        j = std::clamp<std::int64_t>(j, 1, ld - 1);
        const std::int64_t delta = i * m - j * 4;
        out[i - 1] = (xs[j - 1] * static_cast<double>(4 - delta) +
                      xs[j] * static_cast<double>(delta)) / 4.0;
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

Percentile
percentile(std::vector<double> xs, double q)
{
    Percentile p;
    p.count = xs.size();
    if (xs.empty())
        return p;
    std::sort(xs.begin(), xs.end());
    const auto n = static_cast<double>(xs.size());
    auto rank = static_cast<std::uint64_t>(std::ceil(q * n));
    rank = std::clamp<std::uint64_t>(rank, 1, xs.size());
    p.value = xs[rank - 1];
    p.beyond = xs.size() - rank;
    return p;
}

// --------------------------------------------------------------- spans

Tracer::Tracer(bool enabled) : on(enabled), epoch(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

Tracer::Scope
Tracer::span(const char *name)
{
    if (!on || !rec)
        return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.parent = open;
    s.pass = passV;
    s.startNs = nowNs();
    all.push_back(std::move(s));
    open = static_cast<int>(all.size()) - 1;
    return Scope(this, open);
}

Tracer::Scope::~Scope()
{
    if (!tracer)
        return;
    Span &s = tracer->all[static_cast<std::size_t>(index)];
    s.endNs = tracer->nowNs();
    tracer->open = s.parent;
}

std::map<std::string, SelfTime>
Tracer::selfTimes(std::uint32_t first_pass, std::uint32_t last_pass) const
{
    std::vector<std::int64_t> child_ns(all.size(), 0);
    for (const Span &s : all)
        if (s.parent >= 0)
            child_ns[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (s.pass < first_pass || s.pass > last_pass)
            continue;
        SelfTime &t = out[s.name];
        const auto dur = static_cast<double>(s.endNs - s.startNs);
        t.totalSeconds += dur / 1e9;
        t.selfSeconds +=
            (dur - static_cast<double>(child_ns[i])) / 1e9;
        ++t.calls;
    }
    return out;
}

void
Tracer::write(std::ostream &out) const
{
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"pass\":%u}}",
                      s.name.c_str(), s.pass,
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3,
                      i, s.parent, s.pass);
        out << buf << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

// -------------------------------------------------------------- checks

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attemptedV;
    if (!ok) {
        ++failedV;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
    return ok;
}

// ------------------------------------------------------------- results

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
printResult(std::ostream &out, const Checks &checks,
            const Metrics &metrics)
{
    std::ostringstream s;
    s << "{\"correct\": "
      << (checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                          : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        s << (first ? "" : ", ") << "\"" << name
          << "\": {\"value\": " << jsonNumber(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    s << "}}";
    out << s.str() << std::endl;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
        static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------- pass loops

std::vector<double>
PassSeries::windows(const std::string &window) const
{
    std::vector<double> xs;
    for (const PassSample &p : timed)
        xs.push_back(p.hostSeconds.at(window));
    return xs;
}

double
PassSeries::medianHost(const std::string &window) const
{
    return median(windows(window));
}

PassSeries
runPasses(double seconds, std::uint32_t min_passes,
          const std::function<PassSample(std::uint32_t)> &pass)
{
    PassSeries series;
    series.warmup = pass(0);
    const Clock::time_point start = Clock::now();
    std::uint32_t n = 0;
    while (n < min_passes || secondsSince(start) < seconds)
        series.timed.push_back(pass(++n));
    return series;
}

void
checkVirtualsRepeat(const PassSeries &series, Checks &checks)
{
    for (std::size_t i = 0; i < series.timed.size(); ++i) {
        const auto &ref = series.warmup.virtuals;
        const auto &got = series.timed[i].virtuals;
        bool same = ref.size() == got.size();
        for (const auto &[name, v] : ref) {
            const auto it = got.find(name);
            same = same && it != got.end() &&
                std::memcmp(&v, &it->second, sizeof v) == 0;
        }
        checks.expect(same, "virtual metrics of pass " +
                                std::to_string(i + 1) +
                                " differ from the warm-up pass");
    }
}

double
tracingOverhead(const PassSeries &series, double lookups)
{
    std::vector<double> traced, untraced;
    for (std::size_t i = 0; i < series.timed.size(); ++i)
        (i % 2 == 0 ? traced : untraced)
            .push_back(series.windows("main")[i]);
    if (untraced.empty())
        return 0.0;
    const double overhead = median(traced) / median(untraced) - 1.0;
    std::cout << "tracing overhead: lookups_per_s traced "
              << lookups / median(traced) << " vs untraced "
              << lookups / median(untraced) << " ("
              << overhead * 100.0 << "% slower traced)\n";
    return overhead;
}

double
medianSetupSeconds(std::uint32_t repeats,
                   const std::function<void()> &setup)
{
    std::vector<double> xs;
    for (std::uint32_t i = 0; i < repeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        setup();
        xs.push_back(secondsSince(t0));
    }
    printWindows(std::cout, "setup_s", xs);
    return median(xs);
}

void
printWindows(std::ostream &out, const std::string &metric,
             const std::vector<double> &windows)
{
    double total = 0.0;
    double shortest = std::numeric_limits<double>::infinity();
    for (const double w : windows) {
        total += w;
        shortest = std::min(shortest, w);
    }
    const Quartiles q = quartiles(windows);
    out << "window " << metric << " passes=" << windows.size()
        << " shortest_s=" << jsonNumber(shortest)
        << " total_s=" << jsonNumber(total) << " q1_s=" << q.q1
        << " median_s=" << q.q2 << " q3_s=" << q.q3 << " values_s=";
    for (std::size_t i = 0; i < windows.size(); ++i)
        out << (i ? "," : "") << windows[i];
    out << "\n";
}

} // namespace perfbench
