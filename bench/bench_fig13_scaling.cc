/**
 * @file
 * Fig. 13 reproduction: slowdown of each strategy's max (bottleneck)
 * EMB iteration time as the model scales 2x (RM1->RM2) and 4x
 * (RM1->RM3). The paper: heuristics slow down >3x on average while
 * RecShard degrades only ~1.2x.
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_fig13_scaling");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    const std::vector<ModelEvaluation> evals =
        evaluateModels(cfg, {"rm1", "rm2", "rm3"});
    const ModelEvaluation &rm1 = evals[0];
    const ModelEvaluation &rm2 = evals[1];
    const ModelEvaluation &rm3 = evals[2];

    TextTable t({"Strategy", "2x model (RM2/RM1)",
                 "4x model (RM3/RM1)", "Paper note"});
    double base_sum2 = 0, base_sum4 = 0;
    int baselines = 0;
    for (const auto &s1 : rm1.strategies) {
        const double t1 = s1.meanBottleneckTime;
        const double t2 =
            rm2.byName(s1.name).meanBottleneckTime;
        const double t4 =
            rm3.byName(s1.name).meanBottleneckTime;
        const bool is_rs = s1.name == "RecShard";
        if (!is_rs) {
            base_sum2 += t2 / t1;
            base_sum4 += t4 / t1;
            ++baselines;
        }
        t.addRow({s1.name, fmtDouble(t2 / t1, 2) + "x",
                  fmtDouble(t4 / t1, 2) + "x",
                  is_rs ? "paper: ~1.2x at 4x model"
                        : "paper: >3x average at 4x model"});
    }
    t.print(std::cout,
            "Fig. 13: bottleneck-iteration slowdown under model "
            "scaling");
    std::cout << "\nBaseline average at 4x: "
              << fmtDouble(base_sum4 / baselines, 2)
              << "x (paper: 3.07x average); RecShard: "
              << fmtDouble(rm3.byName("RecShard").meanBottleneckTime
                               / rm1.byName("RecShard")
                                     .meanBottleneckTime,
                           2)
              << "x (paper: 1.21x)\n";
    return 0;
}
