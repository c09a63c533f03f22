#include "recshard/dist/zipf.hh"

#include <algorithm>
#include <cmath>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** (exp(t) - 1) / t, stable near t == 0. */
double
expm1OverT(double t)
{
    return std::abs(t) > 1e-8 ? std::expm1(t) / t
                              : 1.0 + t / 2.0 * (1.0 + t / 3.0);
}

/** log(1 + t) / t, stable near t == 0. */
double
log1pOverT(double t)
{
    return std::abs(t) > 1e-8 ? std::log1p(t) / t
                              : 1.0 - t / 2.0 * (1.0 - 2.0 * t / 3.0);
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n_, double alpha_)
    : n(n_), alpha(alpha_)
{
    fatal_if(n == 0, "Zipf support must be non-empty");
    fatal_if(alpha < 0.0, "Zipf exponent must be >= 0, got ", alpha);
    if (alpha > 0.0) {
        hX1 = hIntegral(1.5) - 1.0;
        hN = hIntegral(static_cast<double>(n) + 0.5);
        sThreshold = 2.0 -
            hIntegralInverse(hIntegral(2.5) - h(2.0));
        buildGuide();
    }
}

// Why a tabulated bucket is exact: u(r) is a monotone fp function of
// r, so a bucket's uniforms map into [u at its high edge, u at its
// low edge]; the true inverse is monotone, and the fp inverse's
// error is orders of magnitude below kMargin. So when the edges,
// widened by kMargin, round to rank k and pass the acceptance test,
// every uniform in the bucket does, and no decision rests on a
// recomputed value being bit-equal to the loop's.
void
ZipfSampler::buildGuide()
{
    constexpr double kMargin = 1e-9;
    const double dn = static_cast<double>(n);
    const auto rank_of = [dn](double x) {
        return std::clamp(std::floor(x + 0.5), 1.0, dn);
    };
    // Bucket b holds r in [b, b + 1) * 2^43 and u falls as r grows,
    // so the head (rank 1) sits in the top buckets. Edge e is the
    // first r of bucket e; the last bucket's upper edge is r = 2^53.
    const auto u_at = [this](std::int64_t edge) {
        return uOf(static_cast<std::uint64_t>(edge) << kGuideShift);
    };
    const auto x_at = [&](std::int64_t edge) {
        return hIntegralInverse(u_at(edge));
    };
    const double span = hN - hX1;
    const double per_u = static_cast<double>(kGuideBuckets) / -span;
    const double width = span / static_cast<double>(kGuideBuckets);
    std::vector<std::uint16_t> table(kGuideBuckets, 0);
    const std::uint64_t last = std::min(n, kGuideBuckets);
    for (std::uint64_t rank = 1; rank <= last; ++rank) {
        const double k = static_cast<double>(rank);
        // Rank k is accepted first time for u in [top - h(k), top);
        // those bands narrow with k, so once one is thinner than a
        // bucket no later rank can own a whole bucket.
        const double hk = h(k);
        if (hk < width)
            break;
        const double top = hIntegral(k + 0.5);
        const double bottom = top - hk;
        // Buckets wholly inside the band, by the positions of its ends.
        auto lo = static_cast<std::int64_t>(
            std::ceil((top - hN) * per_u));
        auto hi = static_cast<std::int64_t>(
            std::floor((bottom - hN) * per_u)) - 1;
        lo = std::max<std::int64_t>(lo, 0);
        hi = std::min<std::int64_t>(
            hi, static_cast<std::int64_t>(kGuideBuckets) - 1);
        // The estimate comes from H, not from the loop's inverse:
        // shrink the run until both of its edges hold.
        while (lo <= hi && rank_of(x_at(lo) * (1.0 + kMargin)) != k)
            ++lo;
        while (lo <= hi) {
            const double u_lo = u_at(hi + 1);
            const double x_lo = x_at(hi + 1) * (1.0 - kMargin);
            const bool accepted = k - x_lo <= sThreshold ||
                u_lo >= bottom + kMargin * std::max(1.0, std::abs(bottom));
            if (rank_of(x_lo) == k && accepted)
                break;
            --hi;
        }
        for (std::int64_t b = lo; b <= hi; ++b) {
            table[b] = static_cast<std::uint16_t>(rank);
            guideFirst = std::min(guideFirst,
                                  static_cast<std::uint64_t>(b));
        }
    }
    guide.assign(table.begin() + static_cast<std::ptrdiff_t>(guideFirst),
                 table.end());
}

// H is an antiderivative of h(x) = x^-alpha on [1, n + 1/2]; the
// expm1/log1p helpers keep both H and its inverse stable through
// alpha == 1, where the closed forms degenerate to log(x)/exp(x).

double
ZipfSampler::hIntegral(double x) const
{
    const double logx = std::log(x);
    return expm1OverT((1.0 - alpha) * logx) * logx;
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-alpha * std::log(x));
}

double
ZipfSampler::hIntegralInverse(double x) const
{
    double t = x * (1.0 - alpha);
    t = std::max(t, -1.0); // clamp round-off below the pole
    return std::exp(log1pOverT(t) * x);
}

std::uint64_t
ZipfSampler::invert(std::uint64_t r, Rng &rng) const
{
    // Hörmann & Derflinger rejection-inversion: invert H over the
    // continuous envelope, round to the nearest integer rank, and
    // accept either inside the always-accept band or by the exact
    // h comparison. Expected iterations are O(1) for all alpha.
    for (;;) {
        const double u = uOf(r);
        const double x = hIntegralInverse(u);
        double k = std::floor(x + 0.5);
        k = std::clamp(k, 1.0, static_cast<double>(n));
        if (k - x <= sThreshold ||
            u >= hIntegral(k + 0.5) - h(k)) {
            return static_cast<std::uint64_t>(k) - 1;
        }
        r = rng.nextU64() >> 11;
    }
}

double
ZipfSampler::normalization() const
{
    // Exact generalized harmonic for modest supports; for huge ones
    // (only hit by analytic reports, never by sampling) the tail
    // beyond the first million terms is integrated analytically.
    const std::uint64_t exact_terms =
        std::min<std::uint64_t>(n, 1'000'000);
    double sum = 0.0;
    for (std::uint64_t k = exact_terms; k >= 1; --k)
        sum += std::exp(-alpha * std::log(static_cast<double>(k)));
    if (exact_terms < n) {
        const double a = static_cast<double>(exact_terms) + 0.5;
        const double b = static_cast<double>(n) + 0.5;
        // Integral of x^-alpha over [a, b] (midpoint-corrected).
        sum += alpha == 1.0
            ? std::log(b / a)
            : (std::pow(b, 1.0 - alpha) - std::pow(a, 1.0 - alpha)) /
                (1.0 - alpha);
    }
    return sum;
}

double
ZipfSampler::pmf(std::uint64_t k) const
{
    fatal_if(k >= n, "rank ", k, " outside support ", n);
    return std::exp(-alpha *
                    std::log(static_cast<double>(k) + 1.0)) /
        normalization();
}

std::vector<double>
ZipfSampler::exactCdf() const
{
    std::vector<double> cdf;
    cdf.reserve(n);
    const double z = normalization();
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        acc += std::exp(-alpha * std::log(static_cast<double>(k)));
        cdf.push_back(acc / z);
    }
    return cdf;
}

} // namespace recshard
