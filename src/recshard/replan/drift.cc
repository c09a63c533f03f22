#include "recshard/replan/drift.hh"

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** EWMA smoothing of the per-dispatch hit fraction. */
constexpr double kEwmaAlpha = 0.02;

} // namespace

void
DriftConfig::validate() const
{
    fatal_if(hitDropThreshold <= 0.0,
             "drift hit-drop threshold must be positive");
    fatal_if(minQueries == 0,
             "drift baseline needs >= 1 dispatch");
    fatal_if(minSpeedup < 1.0,
             "replan speedup gate must be >= 1, got ", minSpeedup);
}

DriftDetector::DriftDetector(const DriftConfig &config)
    : cfg(config)
{
    cfg.validate();
}

void
DriftDetector::observe(std::uint64_t hbm_accesses,
                       std::uint64_t uvm_accesses,
                       std::uint64_t cache_hits)
{
    const std::uint64_t accesses =
        hbm_accesses + uvm_accesses + cache_hits;
    if (accesses == 0)
        return; // a lookup-free dispatch carries no signal
    const double frac =
        static_cast<double>(hbm_accesses + cache_hits) /
        static_cast<double>(accesses);
    ++observed;
    if (observed <= cfg.minQueries) {
        baselineSum += frac;
        if (observed == cfg.minQueries) {
            baselineV = baselineSum /
                static_cast<double>(cfg.minQueries);
            ewma = baselineV;
        }
        return;
    }
    ewma += kEwmaAlpha * (frac - ewma);
}

void
DriftDetector::rebaseline()
{
    observed = 0;
    baselineSum = 0.0;
    baselineV = 0.0;
    ewma = 0.0;
}

} // namespace recshard
