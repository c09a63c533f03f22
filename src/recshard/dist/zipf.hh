/**
 * @file
 * Zipf-distributed rank sampling (paper Section 3.1).
 *
 * Raw categorical values of production sparse features follow power
 * laws: the rank-k value (0-based here) is drawn with probability
 * proportional to 1 / (k+1)^alpha. Supports the full range the
 * workload model needs — alpha == 0 (uniform) through strong skew,
 * and supports beyond 2^32 values — with O(1) expected sampling time
 * via rejection-inversion (Hörmann & Derflinger).
 *
 * The head is tabulated. Each draw takes the top 10 bits of its
 * 53-bit uniform as one of 1024 guide buckets. When every uniform in
 * that bucket provably inverts to the same rank and is accepted on
 * the first try, the bucket stores the rank and the draw costs one
 * load. Any other draw runs the rejection-inversion loop on the same
 * uniform, so the drawn sequence is exactly the loop's. The
 * constructor builds the guide once (about 10 µs at RM feature
 * shapes, at most 2 KB), so build one sampler per feature and share
 * it: drawing is const and safe from any number of threads.
 */

#ifndef RECSHARD_DIST_ZIPF_HH
#define RECSHARD_DIST_ZIPF_HH

#include <cstdint>
#include <vector>

#include "recshard/base/random.hh"

namespace recshard {

/** Draws 0-based Zipf ranks in [0, n). */
class ZipfSampler
{
  public:
    /**
     * @param n     Support size (number of distinct values), >= 1.
     * @param alpha Skew exponent, >= 0; 0 is uniform.
     */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw one rank in [0, n). */
    std::uint64_t operator()(Rng &rng) const
    {
        if (alpha == 0.0)
            return static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
        const std::uint64_t r = rng.nextU64() >> 11;
        const std::uint64_t bucket = r >> kGuideShift;
        if (bucket >= guideFirst) {
            const std::uint16_t rank = guide[bucket - guideFirst];
            if (rank != 0)
                return rank - 1;
        }
        return invert(r, rng);
    }

    std::uint64_t support() const { return n; }
    double exponent() const { return alpha; }

    /** Exact probability of rank k; O(min(n, 10^6)) per call. */
    double pmf(std::uint64_t k) const;

    /**
     * The exact CDF over all n ranks; intended for small supports
     * (tests, analytic reports) — O(n) time and memory.
     */
    std::vector<double> exactCdf() const;

  private:
    friend struct ZipfSamplerPeer; // test seam: reads the guide

    /** Guide buckets are the top 10 of the 53 uniform bits. */
    static constexpr int kGuideShift = 43;
    static constexpr std::uint64_t kGuideBuckets = 1ULL << 10;

    /** Rejection-inversion from the 53-bit uniform r onwards. */
    std::uint64_t invert(std::uint64_t r, Rng &rng) const;
    /** The envelope coordinate the 53-bit uniform r maps to. */
    double uOf(std::uint64_t r) const
    {
        return hN + static_cast<double>(r) * 0x1.0p-53 * (hX1 - hN);
    }
    void buildGuide();

    double hIntegral(double x) const;
    double h(double x) const;
    double hIntegralInverse(double x) const;
    double normalization() const;

    std::uint64_t n;
    double alpha;
    // Rejection-inversion constants (alpha > 0 only).
    double hX1 = 0.0;        //!< hIntegral(1.5) - 1
    double hN = 0.0;         //!< hIntegral(n + 0.5)
    double sThreshold = 0.0; //!< acceptance shortcut threshold
    /** 1-based rank of guide bucket guideFirst + i; 0 = not tabulated. */
    std::vector<std::uint16_t> guide;
    std::uint64_t guideFirst = kGuideBuckets;
};

} // namespace recshard

#endif // RECSHARD_DIST_ZIPF_HH
