#include "recshard/sharding/shard_inputs.hh"

#include <algorithm>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

std::vector<EmbShardInput>
buildShardInputs(const ModelSpec &model,
                 const std::vector<EmbProfile> &profiles,
                 unsigned steps, AblationSwitches ablation)
{
    fatal_if(profiles.size() != model.features.size(),
             "profile count ", profiles.size(),
             " != feature count ", model.features.size());
    fatal_if(steps == 0, "ICDF needs at least one step");
    std::vector<EmbShardInput> inputs(model.features.size());
    const auto build = [&](std::size_t j) {
        const FeatureSpec &f = model.features[j];
        const EmbProfile &p = profiles[j];
        EmbShardInput &in = inputs[j];
        in.hashSize = f.hashSize;
        in.rowBytes = f.rowBytes();
        in.tableBytes = f.tableBytes();
        in.avgPool = ablation.usePooling ? p.avgPool : 1.0;
        in.coverage = ablation.useCoverage ? p.coverage : 1.0;
        in.icdfRows = p.cdf.icdfSteps(steps);
        in.tailRows = f.hashSize - p.cdf.touchedRows();
        if (p.cdf.totalAccesses() > 0 && in.tailRows > 0) {
            in.missingMass = std::min(
                0.5,
                static_cast<double>(p.cdf.singletonRows()) /
                    static_cast<double>(p.cdf.totalAccesses()));
        }
    };
    parallelFor(inputs.size(), build, kParallelMinEmbs);
    return inputs;
}

} // namespace recshard
