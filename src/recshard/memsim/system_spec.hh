/**
 * @file
 * Tiered-memory training-system specification and embedding-kernel
 * cost model.
 *
 * Mirrors the paper's evaluation platform (Section 5.2): per GPU,
 * a reserved HBM budget for EMBs (24 GB of an A100-40GB at
 * ~1555 GB/s) and a host-DRAM budget reachable through UVM over
 * PCIe 3.0 x16 (128 GB at an effective ~12.8 GB/s). The cost model
 * is the paper's own (Constraint 11 and Section 4.2 "Key
 * Properties"): an embedding kernel's time is bytes-from-tier over
 * tier bandwidth, combined across tiers by summation (current GPUs)
 * or by max (hypothetical fully-concurrent mixed reads).
 *
 * The Section 4.4 generalization makes the hierarchy N-tier: beyond
 * the always-present HBM and UVM pair, a `SystemSpec` may stack
 * additional cold tiers (SSD, PIM-backed flash, ...), each with its
 * own capacity, bandwidth, fixed access latency, and an optional
 * `nearData` flag meaning in-situ pooling a la RecSSD/RecNMP: the
 * device reduces a pooled lookup set internally and only one
 * `dim * sizeof(float)` vector crosses the link per pooled bag
 * instead of `pooling * dim`. Two-tier call sites keep compiling
 * unchanged — `hbm`/`uvm` stay direct members and double as tiers 0
 * and 1 of the stack.
 */

#ifndef RECSHARD_MEMSIM_SYSTEM_SPEC_HH
#define RECSHARD_MEMSIM_SYSTEM_SPEC_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "recshard/base/logging.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/feature_spec.hh"

namespace recshard {

/** One memory tier as seen by a GPU. */
struct MemoryTierSpec
{
    std::string name;
    std::uint64_t capacityBytes = 0;
    double bandwidth = 0.0; //!< bytes per second
    /** Fixed access latency charged once per kernel that touches
     *  this tier (device/page-fault setup; ~100us for NVMe). */
    double accessLatency = 0.0;
    /**
     * In-situ pooling (RecSSD-style in-storage reduction, RecNMP
     * rank-level near-memory processing): the tier pools resident
     * rows internally, so one reduced `dim`-sized vector crosses
     * the link per pooled bag instead of every looked-up row.
     */
    bool nearData = false;

    /** Invariants: positive bandwidth, non-negative latency. */
    void validate() const;
};

/** A homogeneous multi-GPU training node (per-GPU tier budgets). */
struct SystemSpec
{
    std::uint32_t numGpus = 16;
    MemoryTierSpec hbm; //!< tier 0: per-GPU HBM budget for EMBs
    MemoryTierSpec uvm; //!< tier 1: per-GPU host-DRAM budget (UVM)
    /**
     * Tiers 2..N-1, colder-first (e.g. SSD behind DRAM). Empty for
     * the paper's two-tier system; every pre-tiering call site
     * leaves it empty and compiles unchanged.
     */
    std::vector<MemoryTierSpec> coldTiers;

    /**
     * The paper's evaluation system (Section 5.2).
     *
     * @param gpus           Trainer count (paper: 16).
     * @param capacity_scale Scales both capacities; use the same
     *                       factor as the model-zoo row scale so
     *                       capacity *pressure* is preserved.
     */
    static SystemSpec paper(std::uint32_t gpus = 16,
                            double capacity_scale = 1.0);

    /**
     * Build a system from an explicit ordered tier stack (fastest
     * first, >= 2 tiers): tiers[0] -> hbm, tiers[1] -> uvm, the
     * rest -> coldTiers.
     */
    static SystemSpec fromTiers(std::uint32_t gpus,
                                std::vector<MemoryTierSpec> tiers);

    /** Validate invariants; fatal() on nonsense, including a tier
     *  that is faster than the tier above it (stack order is the
     *  only tier order anything uses). */
    void validate() const;

    /** Tiers in the stack (always >= 2: hbm and uvm). */
    std::size_t numTiers() const { return 2 + coldTiers.size(); }

    /** Tier i of the stack (0 = hbm, 1 = uvm, 2+ = coldTiers). */
    const MemoryTierSpec &tier(std::size_t i) const;

    /** Node-total capacity of tier i (numGpus x per-GPU budget). */
    std::uint64_t totalTierBytes(std::size_t i) const
    {
        return static_cast<std::uint64_t>(numGpus) *
            tier(i).capacityBytes;
    }

    std::uint64_t totalHbmBytes() const
    {
        return static_cast<std::uint64_t>(numGpus) *
            hbm.capacityBytes;
    }

    /** Per-GPU capacity of every tier below HBM (uvm + cold). */
    std::uint64_t coldCapacityBytes() const;
};

/** Embedding-operator latency model over the tier stack. */
class EmbCostModel
{
  public:
    /** How per-tier read times combine (Section 4.2). */
    enum class Combine { Sum, Max };

    explicit EmbCostModel(const SystemSpec &system,
                          Combine combine = Combine::Sum);

    /** Kernel time for the given two-tier byte traffic (tiers 0
     *  and 1 only; fixed latencies are not charged — the paper's
     *  original model, kept bit-compatible for two-tier systems). */
    double time(std::uint64_t hbm_bytes, std::uint64_t uvm_bytes)
        const;

    /**
     * N-tier kernel time: per-tier transfer time plus each touched
     * tier's fixed access latency, combined per the mode.
     *
     * @param bytes_per_tier Bytes read from each tier (stack
     *                       order); a tier is "touched" (and pays
     *                       its latency) when its entry is nonzero.
     */
    double timeTiered(const std::vector<std::uint64_t>
                          &bytes_per_tier) const;

    /**
     * The MILP's per-EMB forward-pass cost estimate (Constraint 11):
     * expected bytes per step from pooling/batch, split by the
     * fraction of accesses served from HBM.
     *
     * @param f        EMB geometry (dim, element bytes).
     * @param avg_pool Average pooling factor estimate.
     * @param pct_hbm  Estimated fraction of accesses served by HBM.
     * @param batch    Training batch size.
     */
    double estimatedEmbCost(const FeatureSpec &f, double avg_pool,
                            double pct_hbm, std::uint32_t batch)
        const;

    /**
     * The two-tier Constraint 11 itself, unchecked: `step_bytes`
     * read per step, `pct_hbm` of them from tier 0 and the rest
     * from tier 1, combined per the mode. Every two-tier price in
     * the planners goes through here; hot loops call it directly.
     */
    double twoTierCost(double step_bytes, double pct_hbm) const
    {
        return fold(pct_hbm * step_bytes / tierBw[0],
                    (1.0 - pct_hbm) * step_bytes / tierBw[1]);
    }

    /**
     * N-tier Constraint 11: per-iteration cost of one EMB when
     * `tier_fracs[i]` of its accesses are served by tier i. A
     * near-data tier's byte term drops the pooling factor (only the
     * reduced vector crosses the link), and every tier with a
     * nonzero access share is charged its fixed latency.
     */
    double estimatedEmbCostTiered(const FeatureSpec &f,
                                  double avg_pool,
                                  const std::vector<double>
                                      &tier_fracs,
                                  std::uint32_t batch) const;

    std::size_t numTiers() const { return tierBw.size(); }
    double tierBandwidth(std::size_t i) const;
    bool tierNearData(std::size_t i) const;
    double hbmBandwidth() const { return tierBw[0]; }
    double uvmBandwidth() const { return tierBw[1]; }

  private:
    /** Fold one tier's time into a running total per the mode. */
    double fold(double total, double t) const
    {
        return mode == Combine::Sum ? total + t : std::max(total, t);
    }

    std::vector<double> tierBw;
    std::vector<double> tierLat;
    std::vector<bool> tierNear;
    Combine mode;
};

} // namespace recshard

#endif // RECSHARD_MEMSIM_SYSTEM_SPEC_HH
