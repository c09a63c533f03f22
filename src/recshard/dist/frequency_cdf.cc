#include "recshard/dist/frequency_cdf.hh"

#include <algorithm>
#include <cmath>

#include "recshard/base/logging.hh"

namespace recshard {

FrequencyCdf::FrequencyCdf(
    std::uint64_t hash_size,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts)
    : rows(hash_size)
{
    fatal_if(counts.size() > hash_size,
             "profiled ", counts.size(),
             " touched rows exceed the hash size ", hash_size);
    // Hottest first; equal counts break ties by row id so the
    // ranking is deterministic regardless of input order.
    std::sort(counts.begin(), counts.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    ranked.reserve(counts.size());
    cumCounts.reserve(counts.size());
    for (const auto &[row, count] : counts) {
        fatal_if(row >= hash_size, "profiled row ", row,
                 " outside hash size ", hash_size);
        fatal_if(count == 0, "profiled row ", row,
                 " has a zero access count");
        ranked.push_back(row);
        total += count;
        cumCounts.push_back(total);
        singletons += count == 1;
    }
    std::vector<std::uint64_t> by_id = ranked;
    std::sort(by_id.begin(), by_id.end());
    const auto dup = std::adjacent_find(by_id.begin(), by_id.end());
    fatal_if(dup != by_id.end(), "profiled row ", *dup,
             " appears twice");
}

double
FrequencyCdf::unusedFraction() const
{
    return rows == 0
        ? 0.0
        : static_cast<double>(rows - touchedRows()) /
            static_cast<double>(rows);
}

std::uint64_t
FrequencyCdf::countAtRank(std::uint64_t rank) const
{
    panic_if(rank >= cumCounts.size(), "rank ", rank,
             " out of range (", cumCounts.size(), " touched rows)");
    return rank == 0 ? cumCounts[0]
                     : cumCounts[rank] - cumCounts[rank - 1];
}

double
FrequencyCdf::accessFraction(std::uint64_t k) const
{
    if (total == 0 || k >= cumCounts.size())
        return 1.0;
    if (k == 0)
        return 0.0;
    return static_cast<double>(cumCounts[k - 1]) /
        static_cast<double>(total);
}

std::uint64_t
FrequencyCdf::rowsForFraction(double fraction) const
{
    if (total == 0 || fraction <= 0.0)
        return 0;
    fraction = std::min(fraction, 1.0);
    // Minimal k with cumCounts[k-1] / total >= fraction. Compare in
    // the count domain via the same division accessFraction() uses
    // so the pair stays exactly consistent.
    std::uint64_t lo = 1, hi = cumCounts.size();
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (static_cast<double>(cumCounts[mid - 1]) /
                static_cast<double>(total) >= fraction)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

std::vector<std::uint64_t>
FrequencyCdf::icdfSteps(unsigned steps) const
{
    fatal_if(steps == 0, "ICDF needs at least one step");
    std::vector<std::uint64_t> out;
    out.reserve(steps + 1);
    // Single monotone sweep: the step fractions increase and
    // rowsForFraction() is non-decreasing, so the minimal k for
    // step i is never below the minimal k for step i-1. Advancing
    // one cursor across cumCounts replaces the per-step binary
    // search (O(S + n) instead of O(S log n)) while evaluating the
    // exact same division comparison rowsForFraction() uses, so the
    // output stays bit-identical.
    out.push_back(0);
    std::uint64_t k = 1;
    const std::uint64_t n = cumCounts.size();
    for (unsigned i = 1; i <= steps; ++i) {
        const double fraction =
            std::min(static_cast<double>(i) /
                         static_cast<double>(steps), 1.0);
        if (total == 0 || fraction <= 0.0) {
            out.push_back(0);
            continue;
        }
        while (k < n &&
               static_cast<double>(cumCounts[k - 1]) /
                       static_cast<double>(total) < fraction)
            ++k;
        out.push_back(k);
    }
    return out;
}

} // namespace recshard
