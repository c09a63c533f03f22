/**
 * @file
 * Table 3 reproduction: min/max/mean/stddev of the per-GPU average
 * EMB iteration time for every strategy on RM1-RM3.
 *
 * Note on fidelity: our kernel model is purely bandwidth-based, so
 * with identical traffic the per-GPU *mean across GPUs* is the same
 * for strategies that keep everything in HBM (RM1); the paper's
 * max/stddev columns — the load-balance story the table exists to
 * tell — are the meaningful comparison.
 */

#include <iostream>

#include "recshard/base/stats.hh"
#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_table3_iteration_times");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    TextTable t({"Model", "Strategy", "Min", "Max", "Mean",
                 "StdDev", "Paper (min/max/mean/std)"});
    int paper_row = 0;
    for (const ModelEvaluation &eval :
         evaluateModels(cfg, {"rm1", "rm2", "rm3"})) {
        for (const auto &s : eval.strategies) {
            std::vector<double> ms;
            for (const double sec : s.gpuMeanTime)
                ms.push_back(sec * 1e3);
            const Summary sum = summarize(ms);
            const auto &p = paper::kTable3[paper_row++];
            t.addRow({eval.modelName, s.name, fmtDouble(sum.min, 2),
                      fmtDouble(sum.max, 2), fmtDouble(sum.mean, 2),
                      fmtDouble(sum.stddev, 2),
                      fmtDouble(p.min, 2) + "/" +
                          fmtDouble(p.max, 2) + "/" +
                          fmtDouble(p.mean, 2) + "/" +
                          fmtDouble(p.stddev, 2)});
        }
    }
    t.print(std::cout,
            "Table 3: per-GPU EMB iteration time (ms), 16 GPUs; "
            "lower max = faster training, lower stddev = better "
            "balance");
    return 0;
}
