#include "recshard/dist/frequency_cdf.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

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
    // Row order first; the profiler already emits it.
    const auto by_row = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    if (!std::is_sorted(counts.begin(), counts.end(), by_row))
        std::sort(counts.begin(), counts.end(), by_row);
    // Hottest first, equal counts by row id: a stable LSD radix sort
    // of indices into `counts` on the complemented count, 11 bits a
    // pass and only as many passes as the largest count needs.
    // `ranked` and `cumCounts` are its two index buffers.
    std::uint64_t count_bits = 0;
    for (const auto &rc : counts)
        count_bits |= rc.second;
    ranked.resize(counts.size());
    cumCounts.resize(counts.size());
    std::iota(ranked.begin(), ranked.end(), std::uint64_t{0});
    for (unsigned shift = 0; shift < 64 && count_bits >> shift; shift += 11) {
        const auto digit = [&](std::uint64_t i) {
            return (~counts[i].second >> shift) & 2047;
        };
        std::array<std::size_t, 2048> start{};
        for (const std::uint64_t i : ranked)
            ++start[digit(i)];
        std::exclusive_scan(start.begin(), start.end(), start.begin(),
                            std::size_t{0});
        for (const std::uint64_t i : ranked)
            cumCounts[start[digit(i)]++] = i;
        ranked.swap(cumCounts);
    }
    for (std::size_t k = 0; k < counts.size(); ++k) {
        const auto &[row, count] = counts[ranked[k]];
        fatal_if(row >= hash_size, "profiled row ", row,
                 " outside hash size ", hash_size);
        fatal_if(count == 0, "profiled row ", row,
                 " has a zero access count");
        ranked[k] = row;
        total += count;
        cumCounts[k] = total;
        singletons += count == 1;
    }
    const auto dup = std::adjacent_find(
        counts.begin(), counts.end(),
        [](const auto &a, const auto &b) { return a.first == b.first; });
    fatal_if(dup != counts.end(), "profiled row ", dup->first,
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
    // The step fractions increase and rowsForFraction() is
    // non-decreasing, so step i's minimal k is never below step
    // i-1's, and the search starts from the last answer. "Row k is
    // still short", cumCounts[k-1] / total < fraction, is the
    // division rowsForFraction() compares and is monotone in k: it
    // holds up to the answer and fails from there. So gallop from
    // the cursor (probe k, k+1, k+3, k+7, ...) until a probe fails
    // or passes n, then bisect the last gap. A step costs O(log d)
    // for the distance d its answer moves, so S steps over n rows
    // cost O(S log(n/S)), and each answer is bit-identical to
    // rowsForFraction()'s.
    out.push_back(0);
    std::uint64_t k = 1;
    const std::uint64_t n = cumCounts.size();
    const auto short_of = [&](std::uint64_t r, double fraction) {
        return static_cast<double>(cumCounts[r - 1]) /
            static_cast<double>(total) < fraction;
    };
    for (unsigned i = 1; i <= steps; ++i) {
        const double fraction =
            std::min(static_cast<double>(i) /
                         static_cast<double>(steps), 1.0);
        if (total == 0 || fraction <= 0.0) {
            out.push_back(0);
            continue;
        }
        // Invariant: every row below `k` is short; `hi` is n or a
        // row that is not.
        std::uint64_t hi = k, gap = 1;
        while (hi < n && short_of(hi, fraction)) {
            k = hi + 1;
            hi = std::min(n, hi + gap);
            gap *= 2;
        }
        while (k < hi) {
            const std::uint64_t mid = k + (hi - k) / 2;
            if (short_of(mid, fraction))
                k = mid + 1;
            else
                hi = mid;
        }
        out.push_back(k);
    }
    return out;
}

} // namespace recshard
