/**
 * @file
 * Drift detection: when does the incumbent plan stop fitting?
 *
 * The signal is the pinned-row hit fraction — the share of a node's
 * embedding accesses served at HBM speed (plan-pinned rows plus
 * cache absorption). A plan solved against the planning-time CDF
 * pins exactly the rows that maximize this fraction; as popularity
 * churns away from that snapshot, the fraction decays and UVM
 * traffic (and with it service time and tail latency) grows. The
 * detector learns a baseline over the first minQueries dispatches
 * after each (re)plan, then tracks an EWMA of the live fraction;
 * once the EWMA falls hitDropThreshold below baseline, the serving
 * loop confirms with assessReshard() — the detector is the cheap
 * always-on trigger, the planner pass is the expensive arbiter that
 * actually prices incumbent vs. fresh (minSpeedup gates migration).
 */

#ifndef RECSHARD_REPLAN_DRIFT_HH
#define RECSHARD_REPLAN_DRIFT_HH

#include <cstdint>

namespace recshard {

/** Drift-trigger knobs (per node). */
struct DriftConfig
{
    /** Absolute hit-fraction drop below baseline that triggers a
     *  replan assessment. */
    double hitDropThreshold = 0.04;
    /** Dispatches that establish the post-(re)plan baseline; the
     *  detector is unarmed until then. */
    std::uint64_t minQueries = 500;
    /** assessReshard() speedup (incumbent / fresh cost) required
     *  before a migration is actually launched. */
    double minSpeedup = 1.02;

    void validate() const;
};

/** Pinned-hit-fraction EWMA drift detector for one node. */
class DriftDetector
{
  public:
    explicit DriftDetector(const DriftConfig &config);

    /** Record one dispatch's tier traffic. Cache hits count as
     *  fast-tier (they mask UVM cost exactly like a pin). */
    void observe(std::uint64_t hbm_accesses,
                 std::uint64_t uvm_accesses,
                 std::uint64_t cache_hits);

    /** Forget the baseline and re-learn it (after a plan handoff
     *  commits — the new plan deserves a fresh reference). */
    void rebaseline();

    /** Baseline learned (minQueries dispatches observed). */
    bool armed() const { return observed >= cfg.minQueries; }

    /** Armed and the EWMA dropped past the threshold. */
    bool drifted() const
    {
        return armed() &&
            ewma < baselineV - cfg.hitDropThreshold;
    }

    double baseline() const { return baselineV; }

  private:
    DriftConfig cfg;
    std::uint64_t observed = 0;
    double baselineSum = 0.0;
    double baselineV = 0.0;
    double ewma = 0.0;
};

} // namespace recshard

#endif // RECSHARD_REPLAN_DRIFT_HH
