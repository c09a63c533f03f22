/**
 * @file
 * Zero-downtime plan migration: move pinned rows between tiers
 * while the node keeps serving.
 *
 * A PlanMigration diffs a node's live pin sets against a freshly
 * solved target plan and turns the difference into a bounded list
 * of per-table steps, each repinning at most rowsPerStep rows. The
 * handoff is double-buffered at row granularity: a row stays
 * servable from its current tier for the whole copy — resolvers
 * answer from the *old* membership until the step's commit flips
 * the bits, and every flip is atomic with respect to the serving
 * loop because both run on the virtual-time event thread. Unpins
 * and pins travel in the same step (unpins applied first), so a
 * table's pinned-row count never exceeds
 * max(incumbent, target) + rowsPerStep and HBM capacity holds
 * throughout.
 *
 * Steps are priced like any other work — copied bytes over the
 * UVM link plus a fixed overhead — and the serving loop schedules
 * them only into idle gaps (see live.hh), which is what makes the
 * migration rate-limited by the same pressure signals the overload
 * controller acts on: a node with queued queries never spends time
 * migrating, so no query is ever shed *because* of migration.
 */

#ifndef RECSHARD_REPLAN_MIGRATION_HH
#define RECSHARD_REPLAN_MIGRATION_HH

#include <cstdint>
#include <vector>

#include "recshard/memsim/system_spec.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/sharding/plan.hh"

namespace recshard {

/** Migration pacing knobs. */
struct MigrationConfig
{
    /** Rows repinned per step — the preemption granularity: a
     *  query arriving mid-step waits at most one step's copy. */
    std::uint64_t rowsPerStep = 512;
    /** Fixed per-step overhead (kernel launch + bookkeeping). */
    double stepOverheadSeconds = 20e-6;
    /** Minimum idle gap between consecutive steps on one node. */
    double minStepGapSeconds = 0.0;

    void validate() const;
};

/** One atomic repin batch for one table. */
struct MigrationStep
{
    std::uint32_t table = 0;
    /** Rows copied UVM -> HBM at commit (hottest first). */
    std::vector<std::uint64_t> pins;
    /** Rows released to UVM at commit (applied before pins). */
    std::vector<std::uint64_t> unpins;
    /** Copy-in traffic: pins x row bytes (unpins are free). */
    std::uint64_t copyBytes = 0;
};

/** One node's in-flight migration toward a target plan. */
class PlanMigration
{
  public:
    /**
     * Diff the live resolvers against `target` and build the step
     * list. Only `tables` (the node's slice — the only tables a
     * node ever pins) are diffed. Affected live resolvers are
     * materialized as mutable splits in place, which preserves
     * current membership exactly.
     *
     * @param model       Row geometry.
     * @param target      Lifted target plan (GPU assignment must
     *                    match the incumbent's; only pin counts
     *                    move).
     * @param target_cdfs Per-table frequency ranking the target's
     *                    pin sets are drawn from (the live sketch
     *                    CDFs); indexed by table id.
     * @param tables      Table ids eligible to migrate.
     * @param live        The node's live resolvers (borrowed;
     *                    mutated at every commit — must outlive
     *                    the migration).
     * @param config      Step sizing and pacing.
     */
    PlanMigration(const ModelSpec &model, const ShardingPlan &target,
                  const std::vector<FrequencyCdf> &target_cdfs,
                  const std::vector<std::uint32_t> &tables,
                  std::vector<TierResolver> &live,
                  const MigrationConfig &config);

    /** All steps committed? (Trivially true for an empty diff.) */
    bool done() const { return next >= steps.size(); }

    /** The step the next commit applies (requires !done()). */
    const MigrationStep &front() const;

    /** Virtual-time cost of the front step. */
    double stepSeconds(const EmbCostModel &cost) const;

    /** Apply the front step's repins to the live resolvers. */
    void commitFront();

    const std::vector<MigrationStep> &allSteps() const
    {
        return steps;
    }

    std::uint64_t totalSteps() const { return steps.size(); }
    std::uint64_t stepsCommitted() const { return next; }
    std::uint64_t rowsPinned() const { return pinned; }
    std::uint64_t rowsUnpinned() const { return unpinned; }
    std::uint64_t copyBytesTotal() const { return copyBytes; }

    /**
     * Rows per tier of one of `tables` once every step has
     * committed: pinned rows leave their tier for tier 0, unpinned
     * rows land in tier 1 (as TierResolver::setHbm moves them), and
     * every other row stays where it is.
     */
    const std::vector<std::uint64_t> &
    tierRowsAfter(std::uint32_t table) const
    {
        return tierRowsAfterV[table];
    }

    double minStepGapSeconds() const
    {
        return cfg.minStepGapSeconds;
    }

  private:
    MigrationConfig cfg;
    std::vector<TierResolver> &live;
    std::vector<MigrationStep> steps;
    std::size_t next = 0;
    std::uint64_t pinned = 0;
    std::uint64_t unpinned = 0;
    std::uint64_t copyBytes = 0;
    /** tierRowsAfter() per table id; empty for unlisted tables. */
    std::vector<std::vector<std::uint64_t>> tierRowsAfterV;
};

} // namespace recshard

#endif // RECSHARD_REPLAN_MIGRATION_HH
