#include "recshard/memsim/system_spec.hh"

#include "recshard/base/logging.hh"

namespace recshard {

void
MemoryTierSpec::validate() const
{
    panic_if(bandwidth <= 0.0, "tier '", name,
             "' has non-positive bandwidth ", bandwidth,
             " (every tier time divides by it)");
    panic_if(accessLatency < 0.0, "tier '", name,
             "' has negative access latency ", accessLatency);
}

SystemSpec
SystemSpec::paper(std::uint32_t gpus, double capacity_scale)
{
    fatal_if(gpus == 0, "a training system needs at least one GPU");
    fatal_if(capacity_scale <= 0.0,
             "capacity scale must be positive");
    SystemSpec sys;
    sys.numGpus = gpus;
    // 24 GB of each A100-40GB reserved for EMBs; ~1555 GB/s HBM2e.
    sys.hbm = MemoryTierSpec{
        "HBM",
        static_cast<std::uint64_t>(24.0 * static_cast<double>(GB) *
                                   capacity_scale),
        1555.0 * GBps};
    // 128 GB host DRAM per GPU via UVM; PCIe 3.0 x16 sustains
    // ~12.8 GB/s for scatter-gather reads.
    sys.uvm = MemoryTierSpec{
        "UVM",
        static_cast<std::uint64_t>(128.0 * static_cast<double>(GB) *
                                   capacity_scale),
        12.8 * GBps};
    sys.validate();
    return sys;
}

SystemSpec
SystemSpec::fromTiers(std::uint32_t gpus,
                      std::vector<MemoryTierSpec> tiers)
{
    fatal_if(gpus == 0, "a training system needs at least one GPU");
    fatal_if(tiers.size() < 2, "a tier stack needs at least two "
             "tiers (HBM-equivalent and one backing tier), got ",
             tiers.size());
    SystemSpec sys;
    sys.numGpus = gpus;
    sys.hbm = std::move(tiers[0]);
    sys.uvm = std::move(tiers[1]);
    sys.coldTiers.assign(
        std::make_move_iterator(tiers.begin() + 2),
        std::make_move_iterator(tiers.end()));
    sys.validate();
    return sys;
}

void
SystemSpec::validate() const
{
    fatal_if(numGpus == 0, "system has no GPUs");
    fatal_if(hbm.capacityBytes == 0, "HBM capacity must be positive");
    for (std::size_t i = 0; i < numTiers(); ++i)
        tier(i).validate();
    for (std::size_t i = 1; i < numTiers(); ++i) {
        fatal_if(tier(i).bandwidth > tier(i - 1).bandwidth,
                 "tier '", tier(i).name, "' (",
                 formatBandwidth(tier(i).bandwidth),
                 ") is faster than tier '", tier(i - 1).name, "' (",
                 formatBandwidth(tier(i - 1).bandwidth),
                 ") above it; order the stack fastest first");
    }
}

const MemoryTierSpec &
SystemSpec::tier(std::size_t i) const
{
    if (i == 0)
        return hbm;
    if (i == 1)
        return uvm;
    panic_if(i - 2 >= coldTiers.size(), "tier index ", i,
             " out of range (", numTiers(), " tiers)");
    return coldTiers[i - 2];
}

std::uint64_t
SystemSpec::coldCapacityBytes() const
{
    std::uint64_t bytes = uvm.capacityBytes;
    for (const MemoryTierSpec &t : coldTiers)
        bytes += t.capacityBytes;
    return bytes;
}

EmbCostModel::EmbCostModel(const SystemSpec &system, Combine combine_)
    : mode(combine_)
{
    const std::size_t T = system.numTiers();
    tierBw.reserve(T);
    tierLat.reserve(T);
    tierNear.reserve(T);
    for (std::size_t i = 0; i < T; ++i) {
        const MemoryTierSpec &t = system.tier(i);
        t.validate();
        tierBw.push_back(t.bandwidth);
        tierLat.push_back(t.accessLatency);
        tierNear.push_back(t.nearData);
    }
}

double
EmbCostModel::tierBandwidth(std::size_t i) const
{
    panic_if(i >= tierBw.size(), "tier index ", i, " out of range");
    return tierBw[i];
}

double
EmbCostModel::tierLatency(std::size_t i) const
{
    panic_if(i >= tierLat.size(), "tier index ", i, " out of range");
    return tierLat[i];
}

bool
EmbCostModel::tierNearData(std::size_t i) const
{
    panic_if(i >= tierNear.size(), "tier index ", i,
             " out of range");
    return tierNear[i];
}

double
EmbCostModel::time(std::uint64_t hbm_bytes, std::uint64_t uvm_bytes)
    const
{
    return fold(static_cast<double>(hbm_bytes) / tierBw[0],
                static_cast<double>(uvm_bytes) / tierBw[1]);
}

double
EmbCostModel::timeTiered(
    const std::vector<std::uint64_t> &bytes_per_tier) const
{
    panic_if(bytes_per_tier.size() != tierBw.size(),
             "expected ", tierBw.size(), " tier byte counts, got ",
             bytes_per_tier.size());
    double total = 0.0;
    for (std::size_t i = 0; i < tierBw.size(); ++i) {
        if (bytes_per_tier[i] == 0)
            continue;
        total = fold(total, tierLat[i] +
                     static_cast<double>(bytes_per_tier[i]) /
                         tierBw[i]);
    }
    return total;
}

double
EmbCostModel::estimatedEmbCost(const FeatureSpec &f, double avg_pool,
                               double pct_hbm, std::uint32_t batch)
    const
{
    fatal_if(pct_hbm < 0.0 || pct_hbm > 1.0,
             "HBM access fraction ", pct_hbm, " outside [0,1]");
    return twoTierCost(avg_pool * static_cast<double>(f.rowBytes()) *
                           static_cast<double>(batch),
                       pct_hbm);
}

double
EmbCostModel::estimatedEmbCostTiered(
    const FeatureSpec &f, double avg_pool,
    const std::vector<double> &tier_fracs, std::uint32_t batch) const
{
    fatal_if(tier_fracs.size() != tierBw.size(),
             "expected ", tierBw.size(), " tier access fractions, "
             "got ", tier_fracs.size());
    const double step_bytes = avg_pool *
        static_cast<double>(f.rowBytes()) *
        static_cast<double>(batch);
    double total = 0.0;
    for (std::size_t i = 0; i < tierBw.size(); ++i) {
        const double frac = tier_fracs[i];
        fatal_if(frac < 0.0 || frac > 1.0 + 1e-9, "tier ", i,
                 " access fraction ", frac, " outside [0,1]");
        if (frac <= 0.0)
            continue;
        // In-situ pooling: only the reduced vector crosses the
        // link, so the pooling factor drops out of the byte term.
        const double bytes = tierNear[i] && avg_pool > 1.0
            ? frac * step_bytes / avg_pool : frac * step_bytes;
        total = fold(total, tierLat[i] + bytes / tierBw[i]);
    }
    return total;
}

} // namespace recshard
