/**
 * @file
 * Sharding plans: the output of every sharding strategy.
 *
 * A plan assigns each EMB to one GPU and chooses how many of its
 * top-ranked (hottest) rows live in that GPU's HBM; the remainder is
 * served from host DRAM over UVM. Baseline strategies only produce
 * whole-table placements (hbmRows == hashSize or 0); RecShard
 * produces fine-grained splits (paper Section 4.2).
 */

#ifndef RECSHARD_SHARDING_PLAN_HH
#define RECSHARD_SHARDING_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "recshard/datagen/feature_spec.hh"
#include "recshard/memsim/system_spec.hh"

namespace recshard {

/** Placement decision for one EMB. */
struct EmbPlacement
{
    std::uint32_t gpu = 0;
    /** Top-ranked rows resident in HBM; the rest go to UVM. */
    std::uint64_t hbmRows = 0;
    /** Estimated fraction of accesses served from HBM (pct_j). */
    double hbmAccessFraction = 0.0;
    /**
     * N-tier split (Section 4.4): row counts per tier in stack
     * order, hottest-ranked rows to the fastest tiers. Empty for a
     * legacy two-tier placement (hbmRows in HBM, rest in UVM).
     * When present: size == system.numTiers(), tierRows[0] ==
     * hbmRows, and the entries sum to the EMB's hashSize.
     */
    std::vector<std::uint64_t> tierRows;
    /** Estimated fraction of accesses served by each tier; same
     *  shape contract as tierRows (tierAccessFraction[0] ==
     *  hbmAccessFraction). */
    std::vector<double> tierAccessFraction;

    /** True when this placement carries an explicit N-tier split. */
    bool tiered() const { return !tierRows.empty(); }
};

/** A complete sharding decision for a model. */
struct ShardingPlan
{
    std::string strategy;
    std::vector<EmbPlacement> tables;

    /** Bytes of HBM the plan consumes on one GPU. */
    std::uint64_t hbmBytesOnGpu(const ModelSpec &model,
                                std::uint32_t gpu) const;

    /** Bytes of UVM-backed DRAM the plan consumes on one GPU. */
    std::uint64_t uvmBytesOnGpu(const ModelSpec &model,
                                std::uint32_t gpu) const;

    /**
     * Bytes of tier `tier` the plan consumes on one GPU. Legacy
     * placements count as {hbmRows -> tier 0, remainder -> tier 1}.
     */
    std::uint64_t tierBytesOnGpu(const ModelSpec &model,
                                 std::uint32_t gpu,
                                 std::size_t tier) const;

    /** Total rows the plan keeps in HBM across all EMBs. */
    std::uint64_t totalHbmRows() const;

    /** Total rows the plan leaves in UVM. */
    std::uint64_t totalUvmRows(const ModelSpec &model) const;

    /**
     * Check structural validity and capacity limits; fatal() with a
     * diagnostic if the plan is not executable on the system.
     */
    void validate(const ModelSpec &model, const SystemSpec &system)
        const;
};

} // namespace recshard

#endif // RECSHARD_SHARDING_PLAN_HH
