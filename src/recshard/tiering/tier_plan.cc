#include "recshard/tiering/tier_plan.hh"

#include <algorithm>
#include <queue>

#include "recshard/base/logging.hh"

namespace recshard {

SystemSpec
twoTierProjection(const SystemSpec &system)
{
    system.validate();
    if (system.numTiers() == 2)
        return system;

    std::uint64_t cold_cap = 0;
    double seconds_per_byte_sum = 0.0; // sum of cap_i / bw_i
    for (std::size_t i = 1; i < system.numTiers(); ++i) {
        const MemoryTierSpec &t = system.tier(i);
        cold_cap += t.capacityBytes;
        seconds_per_byte_sum +=
            static_cast<double>(t.capacityBytes) / t.bandwidth;
    }
    fatal_if(cold_cap == 0,
             "N-tier system has no cold capacity to project");

    SystemSpec proj;
    proj.numGpus = system.numGpus;
    proj.hbm = system.hbm;
    proj.uvm = system.uvm;
    proj.uvm.capacityBytes = cold_cap;
    // Capacity-weighted harmonic mean: the bandwidth a byte spread
    // uniformly across the cold tiers would see. The solver plans
    // the HBM split against this; extendPlanToTiers then recovers
    // the per-tier reality.
    proj.uvm.bandwidth =
        static_cast<double>(cold_cap) / seconds_per_byte_sum;
    proj.uvm.accessLatency = 0.0;
    proj.uvm.nearData = false;
    proj.validate();
    return proj;
}

namespace {

/** A table's next unplaced rank range on one GPU. */
struct ColdCursor
{
    std::size_t table;
    std::uint64_t nextRank;
    double density; //!< access share per byte of the next chunk
};

struct DensityLess
{
    bool
    operator()(const ColdCursor &a, const ColdCursor &b) const
    {
        return a.density < b.density;
    }
};

double
chunkDensity(const EmbProfile &p, std::uint64_t next,
             std::uint64_t chunk, std::uint64_t row_bytes)
{
    const double share = p.cdf.accessFraction(next + chunk) -
        p.cdf.accessFraction(next);
    return p.expectedAccessesPerSample() * share /
        static_cast<double>(chunk * row_bytes);
}

} // namespace

std::vector<double>
tierAccessShares(const EmbPlacement &placement,
                 const FrequencyCdf &cdf, std::size_t num_tiers)
{
    const EmbPlacement &t = placement;
    if (t.tiered() && !t.tierAccessFraction.empty())
        return t.tierAccessFraction;
    std::vector<double> shares(num_tiers, 0.0);
    if (t.tiered()) {
        std::uint64_t rank = 0;
        for (std::size_t i = 0; i < t.tierRows.size(); ++i) {
            shares[i] = cdf.accessFraction(rank + t.tierRows[i]) -
                cdf.accessFraction(rank);
            rank += t.tierRows[i];
        }
    } else {
        shares[0] = cdf.accessFraction(t.hbmRows);
        shares[1] = 1.0 - shares[0];
    }
    return shares;
}

void
extendPlanToTiers(const ModelSpec &model,
                  const std::vector<EmbProfile> &profiles,
                  const SystemSpec &system, ShardingPlan &plan)
{
    fatal_if(plan.tables.size() != model.features.size(),
             "plan/model mismatch");
    fatal_if(profiles.size() != model.features.size(),
             "profiles/model mismatch");
    const std::size_t T = system.numTiers();
    if (T == 2)
        return;

    std::vector<std::vector<std::uint64_t>> tier_rows(
        plan.tables.size());

    for (std::uint32_t m = 0; m < system.numGpus; ++m) {
        // Cold byte budgets for tiers 1..T-1 on this GPU.
        std::vector<std::uint64_t> budget(T, 0);
        for (std::size_t i = 1; i < T; ++i)
            budget[i] = system.tier(i).capacityBytes;

        std::priority_queue<ColdCursor, std::vector<ColdCursor>,
                            DensityLess>
            heap;
        for (std::size_t j = 0; j < plan.tables.size(); ++j) {
            const auto &t = plan.tables[j];
            if (t.gpu != m)
                continue;
            const auto &f = model.features[j];
            tier_rows[j].assign(T, 0);
            tier_rows[j][0] = t.hbmRows;
            if (t.hbmRows == f.hashSize)
                continue;
            const std::uint64_t chunk = std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(f.hashSize / 256,
                                           f.hashSize - t.hbmRows));
            heap.push(ColdCursor{
                j, t.hbmRows,
                chunkDensity(profiles[j], t.hbmRows, chunk,
                             f.rowBytes())});
        }

        // Exchange argument across tables: globally hottest cold
        // chunk takes the fastest cold tier that still has room.
        while (!heap.empty()) {
            ColdCursor c = heap.top();
            heap.pop();
            const auto &f = model.features[c.table];
            const std::uint64_t row_bytes = f.rowBytes();
            const std::uint64_t rows_left =
                f.hashSize - c.nextRank;
            std::uint64_t chunk = std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(f.hashSize / 256,
                                           rows_left));
            std::uint64_t take = 0;
            std::size_t tier = 0;
            for (std::size_t i = 1; i < T; ++i) {
                const std::uint64_t fit = budget[i] / row_bytes;
                if (fit > 0) {
                    take = std::min<std::uint64_t>(chunk, fit);
                    tier = i;
                    break;
                }
            }
            fatal_if(take == 0, "cold tiers cannot hold EMB ",
                     c.table, " on GPU ", m,
                     " (plan '", plan.strategy,
                     "'); solve against twoTierProjection() first");
            tier_rows[c.table][tier] += take;
            budget[tier] -= take * row_bytes;
            c.nextRank += take;
            if (c.nextRank < f.hashSize) {
                const std::uint64_t next_chunk =
                    std::max<std::uint64_t>(
                        1, std::min<std::uint64_t>(
                               f.hashSize / 256,
                               f.hashSize - c.nextRank));
                c.density = chunkDensity(profiles[c.table],
                                         c.nextRank, next_chunk,
                                         row_bytes);
                heap.push(c);
            }
        }
    }

    // Every table's tier rows now sum to its hash size; its access
    // shares are the CDF ranges of those rank blocks.
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        EmbPlacement &t = plan.tables[j];
        t.tierRows = std::move(tier_rows[j]);
        t.tierAccessFraction.clear();
        t.tierAccessFraction = tierAccessShares(t, profiles[j].cdf, T);
        t.hbmAccessFraction = t.tierAccessFraction[0];
    }
}

double
maxCombineBottleneck(const ModelSpec &model,
                     const std::vector<EmbProfile> &profiles,
                     const SystemSpec &system,
                     const ShardingPlan &plan, std::uint32_t batch)
{
    fatal_if(plan.tables.size() != model.features.size(),
             "plan/model mismatch");
    const std::size_t T = system.numTiers();
    std::vector<std::vector<double>> gpu_bytes(
        system.numGpus, std::vector<double>(T, 0.0));

    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const auto &t = plan.tables[j];
        const auto &p = profiles[j];
        const double accesses = p.coverage * p.avgPool *
            static_cast<double>(batch);
        const double row_bytes =
            static_cast<double>(model.features[j].rowBytes());
        const std::vector<double> shares =
            tierAccessShares(t, p.cdf, T);
        for (std::size_t i = 0; i < T; ++i) {
            double b = accesses * shares[i] * row_bytes;
            if (system.tier(i).nearData && p.avgPool > 1.0)
                b /= p.avgPool;
            gpu_bytes[t.gpu][i] += b;
        }
    }

    // Whole bytes per tier, as a kernel reads them.
    const EmbCostModel cost(system);
    double worst = 0.0;
    for (const auto &bytes : gpu_bytes)
        for (std::size_t i = 0; i < T; ++i)
            worst = std::max(
                worst, static_cast<double>(
                           static_cast<std::uint64_t>(bytes[i])) /
                    cost.tierBandwidth(i));
    return worst;
}

} // namespace recshard
