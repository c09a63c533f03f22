#include "recshard/replan/migration.hh"

#include <algorithm>
#include <unordered_map>

#include "recshard/base/logging.hh"

namespace recshard {

void
MigrationConfig::validate() const
{
    fatal_if(rowsPerStep == 0, "migration steps must move rows");
    fatal_if(stepOverheadSeconds < 0.0,
             "migration step overhead cannot be negative");
    fatal_if(minStepGapSeconds < 0.0,
             "migration step gap cannot be negative");
}

PlanMigration::PlanMigration(const ModelSpec &model,
                             const ShardingPlan &target,
                             const std::vector<FrequencyCdf> &target_cdfs,
                             const std::vector<std::uint32_t> &tables,
                             std::vector<TierResolver> &live_,
                             const MigrationConfig &config)
    : cfg(config), live(live_), tierRowsAfterV(model.numFeatures())
{
    cfg.validate();
    fatal_if(target.tables.size() != model.numFeatures(),
             "target plan covers ", target.tables.size(),
             " tables; model has ", model.numFeatures());
    fatal_if(target_cdfs.size() != model.numFeatures(),
             "target CDFs cover ", target_cdfs.size(),
             " tables; model has ", model.numFeatures());
    panic_if(live.size() != model.numFeatures(),
             "live resolver count mismatch");

    for (const std::uint32_t j : tables) {
        const FeatureSpec &f = model.features[j];
        const std::uint64_t rows = f.hashSize;

        // Materialize the live membership as a mutable bitset; the
        // scan preserves the exact current pin set, whatever mode
        // the resolver started in.
        std::vector<bool> bits(rows);
        for (std::uint64_t r = 0; r < rows; ++r)
            bits[r] = live[j].inHbm(r);

        // The target's pin set for this table: what split() would
        // build from the fresh CDF at the target's hbmRows.
        const TierResolver want = TierResolver::split(
            target_cdfs[j], target.tables[j].hbmRows, rows);

        // Rank map for pin ordering: hot rows first, so an aborted
        // or in-flight migration has already moved the rows that
        // matter most. Rows the fresh CDF never ranked order last,
        // by row id (total order -> deterministic step list).
        std::unordered_map<std::uint64_t, std::uint64_t> rank;
        const std::vector<std::uint64_t> &ranked =
            target_cdfs[j].rankedRows();
        rank.reserve(ranked.size());
        for (std::uint64_t r = 0; r < ranked.size(); ++r)
            rank.emplace(ranked[r], r);
        const auto rankOf = [&](std::uint64_t row) {
            const auto it = rank.find(row);
            return it != rank.end() ? it->second : rows + row;
        };

        std::vector<std::uint64_t> pins;
        std::vector<std::uint64_t> unpins;
        std::vector<std::uint64_t> &after = tierRowsAfterV[j];
        after.assign(live[j].numTiers(), 0);
        for (std::uint64_t r = 0; r < rows; ++r) {
            const bool now = bits[r];
            const bool want_hbm = want.inHbm(r);
            if (want_hbm && !now)
                pins.push_back(r);
            else if (!want_hbm && now)
                unpins.push_back(r);
            ++after[want_hbm ? 0 : now ? 1 : live[j].tierOf(r)];
        }
        std::sort(pins.begin(), pins.end(),
                  [&](std::uint64_t a, std::uint64_t b) {
                      const std::uint64_t ra = rankOf(a);
                      const std::uint64_t rb = rankOf(b);
                      return ra != rb ? ra < rb : a < b;
                  });
        // unpins are already ascending (built by row scan).

        if (pins.empty() && unpins.empty())
            continue;
        if (live[j].numTiers() > 2) {
            // Tiered node: materialize the full tier map so the
            // DRAM/SSD split keeps pricing correctly mid-migration.
            std::vector<std::uint8_t> ids(rows);
            for (std::uint64_t r = 0; r < rows; ++r)
                ids[r] = live[j].tierOf(r);
            live[j] = TierResolver::fromTierIds(
                std::move(ids), live[j].numTiers());
        } else {
            live[j] = TierResolver::fromBits(std::move(bits));
        }

        // Pair pins and unpins into rowsPerStep chunks. Unpins ride
        // with (and commit before) the pins of the same step, so the
        // pinned-row count stays within max(old, new) + rowsPerStep.
        const std::uint64_t row_bytes = f.rowBytes();
        std::size_t pi = 0, ui = 0;
        while (pi < pins.size() || ui < unpins.size()) {
            MigrationStep step;
            step.table = j;
            for (std::uint64_t n = 0;
                 n < cfg.rowsPerStep && ui < unpins.size(); ++n)
                step.unpins.push_back(unpins[ui++]);
            for (std::uint64_t n = 0;
                 n < cfg.rowsPerStep && pi < pins.size(); ++n)
                step.pins.push_back(pins[pi++]);
            step.copyBytes = step.pins.size() * row_bytes;
            pinned += step.pins.size();
            unpinned += step.unpins.size();
            copyBytes += step.copyBytes;
            steps.push_back(std::move(step));
        }
    }
}

const MigrationStep &
PlanMigration::front() const
{
    panic_if(done(), "migration has no pending steps");
    return steps[next];
}

double
PlanMigration::stepSeconds(const EmbCostModel &cost) const
{
    return cost.time(0, front().copyBytes) + cfg.stepOverheadSeconds;
}

void
PlanMigration::commitFront()
{
    panic_if(done(), "migration already complete");
    const MigrationStep &step = steps[next];
    TierResolver &resolver = live[step.table];
    for (const std::uint64_t row : step.unpins)
        resolver.setHbm(row, false);
    for (const std::uint64_t row : step.pins)
        resolver.setHbm(row, true);
    ++next;
}

} // namespace recshard
