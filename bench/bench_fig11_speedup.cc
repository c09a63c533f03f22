/**
 * @file
 * Fig. 11 reproduction: EMB training-iteration speedup of each
 * sharding strategy, normalized to the slowest strategy per model
 * (training is bound by the slowest GPU, so the metric is the mean
 * bottleneck iteration time).
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_fig11_speedup");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    TextTable t({"Model", "Strategy", "Bottleneck iter (ms)",
                 "Speedup vs slowest", "RecShard vs next-best"});
    const double paper_gain[] = {2.58, 5.26, 7.41};
    int model_idx = 0;
    for (const ModelEvaluation &eval :
         evaluateModels(cfg, {"rm1", "rm2", "rm3"})) {
        double slowest = 0.0, best_baseline = 1e300;
        for (const auto &s : eval.strategies) {
            slowest = std::max(slowest, s.meanBottleneckTime);
            if (s.name != "RecShard")
                best_baseline = std::min(best_baseline,
                                         s.meanBottleneckTime);
        }
        const double recshard =
            eval.byName("RecShard").meanBottleneckTime;
        for (const auto &s : eval.strategies) {
            const bool is_rs = s.name == "RecShard";
            t.addRow({eval.modelName, s.name,
                      fmtDouble(s.meanBottleneckTime * 1e3, 2),
                      fmtDouble(slowest / s.meanBottleneckTime, 2),
                      is_rs ? fmtDouble(best_baseline / recshard, 2)
                                  + "x (paper: " +
                                  fmtDouble(paper_gain[model_idx],
                                            2) + "x)"
                            : ""});
        }
        ++model_idx;
    }
    t.print(std::cout,
            "Fig. 11: EMB training speedup, 16 GPUs");
    return 0;
}
