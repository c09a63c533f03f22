#include "recshard/sharding/plan.hh"

#include "recshard/base/logging.hh"

namespace recshard {

std::uint64_t
ShardingPlan::hbmBytesOnGpu(const ModelSpec &model,
                            std::uint32_t gpu) const
{
    std::uint64_t bytes = 0;
    for (std::size_t j = 0; j < tables.size(); ++j)
        if (tables[j].gpu == gpu)
            bytes += tables[j].hbmRows * model.features[j].rowBytes();
    return bytes;
}

std::uint64_t
ShardingPlan::uvmBytesOnGpu(const ModelSpec &model,
                            std::uint32_t gpu) const
{
    std::uint64_t bytes = 0;
    for (std::size_t j = 0; j < tables.size(); ++j) {
        if (tables[j].gpu == gpu) {
            const auto &f = model.features[j];
            bytes += (f.hashSize - tables[j].hbmRows) * f.rowBytes();
        }
    }
    return bytes;
}

std::uint64_t
ShardingPlan::tierBytesOnGpu(const ModelSpec &model,
                             std::uint32_t gpu,
                             std::size_t tier) const
{
    std::uint64_t bytes = 0;
    for (std::size_t j = 0; j < tables.size(); ++j) {
        const auto &t = tables[j];
        if (t.gpu != gpu)
            continue;
        const auto &f = model.features[j];
        if (t.tiered()) {
            if (tier < t.tierRows.size())
                bytes += t.tierRows[tier] * f.rowBytes();
        } else if (tier == 0) {
            bytes += t.hbmRows * f.rowBytes();
        } else if (tier == 1) {
            bytes += (f.hashSize - t.hbmRows) * f.rowBytes();
        }
    }
    return bytes;
}

std::uint64_t
ShardingPlan::totalHbmRows() const
{
    std::uint64_t rows = 0;
    for (const auto &t : tables)
        rows += t.hbmRows;
    return rows;
}

std::uint64_t
ShardingPlan::totalUvmRows(const ModelSpec &model) const
{
    std::uint64_t rows = 0;
    for (std::size_t j = 0; j < tables.size(); ++j)
        rows += model.features[j].hashSize - tables[j].hbmRows;
    return rows;
}

void
ShardingPlan::validate(const ModelSpec &model,
                       const SystemSpec &system) const
{
    fatal_if(tables.size() != model.features.size(),
             "plan covers ", tables.size(), " EMBs but model '",
             model.name, "' has ", model.features.size());
    for (std::size_t j = 0; j < tables.size(); ++j) {
        const auto &t = tables[j];
        fatal_if(t.gpu >= system.numGpus,
                 "EMB ", j, " assigned to GPU ", t.gpu,
                 " but the system has ", system.numGpus);
        fatal_if(t.hbmRows > model.features[j].hashSize,
                 "EMB ", j, " places ", t.hbmRows,
                 " rows in HBM but has only ",
                 model.features[j].hashSize);
        fatal_if(t.hbmAccessFraction < 0.0 ||
                 t.hbmAccessFraction > 1.0,
                 "EMB ", j, " HBM access fraction ",
                 t.hbmAccessFraction, " outside [0,1]");
        if (!t.tiered())
            continue;
        fatal_if(t.tierRows.size() != system.numTiers(),
                 "EMB ", j, " splits across ", t.tierRows.size(),
                 " tiers but the system has ", system.numTiers());
        fatal_if(t.tierRows[0] != t.hbmRows,
                 "EMB ", j, " tier-0 row count ", t.tierRows[0],
                 " disagrees with hbmRows ", t.hbmRows);
        std::uint64_t rows = 0;
        for (const std::uint64_t r : t.tierRows)
            rows += r;
        fatal_if(rows != model.features[j].hashSize,
                 "EMB ", j, " tier rows sum to ", rows,
                 " but the EMB has ", model.features[j].hashSize);
        fatal_if(!t.tierAccessFraction.empty() &&
                 t.tierAccessFraction.size() != t.tierRows.size(),
                 "EMB ", j, " has ", t.tierAccessFraction.size(),
                 " tier access fractions for ", t.tierRows.size(),
                 " tiers");
        for (const double frac : t.tierAccessFraction)
            fatal_if(frac < -1e-9 || frac > 1.0 + 1e-9,
                     "EMB ", j, " tier access fraction ", frac,
                     " outside [0,1]");
    }
    for (std::uint32_t m = 0; m < system.numGpus; ++m) {
        const std::uint64_t hbm = tierBytesOnGpu(model, m, 0);
        fatal_if(hbm > system.hbm.capacityBytes,
                 "plan '", strategy, "' overflows HBM on GPU ", m,
                 ": ", hbm, " > ", system.hbm.capacityBytes);
        if (system.numTiers() == 2) {
            const std::uint64_t uvm = uvmBytesOnGpu(model, m);
            fatal_if(uvm > system.uvm.capacityBytes,
                     "plan '", strategy, "' overflows UVM on GPU ",
                     m, ": ", uvm, " > ", system.uvm.capacityBytes);
            continue;
        }
        // N-tier system: tiered placements are checked per tier;
        // legacy placements' cold remainder only needs to fit the
        // aggregate cold capacity (extendPlanToTiers distributes it).
        std::uint64_t cold_total = 0;
        for (std::size_t i = 1; i < system.numTiers(); ++i) {
            std::uint64_t tiered_bytes = 0;
            for (std::size_t j = 0; j < tables.size(); ++j) {
                const auto &t = tables[j];
                if (t.gpu == m && t.tiered())
                    tiered_bytes += t.tierRows[i] *
                        model.features[j].rowBytes();
            }
            fatal_if(tiered_bytes > system.tier(i).capacityBytes,
                     "plan '", strategy, "' overflows tier '",
                     system.tier(i).name, "' on GPU ", m, ": ",
                     tiered_bytes, " > ",
                     system.tier(i).capacityBytes);
            cold_total += tiered_bytes;
        }
        for (std::size_t j = 0; j < tables.size(); ++j) {
            const auto &t = tables[j];
            if (t.gpu == m && !t.tiered()) {
                const auto &f = model.features[j];
                cold_total += (f.hashSize - t.hbmRows) *
                    f.rowBytes();
            }
        }
        fatal_if(cold_total > system.coldCapacityBytes(),
                 "plan '", strategy, "' overflows the cold tiers "
                 "on GPU ", m, ": ", cold_total, " > ",
                 system.coldCapacityBytes());
    }
}

} // namespace recshard
