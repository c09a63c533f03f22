/**
 * @file
 * Table 5 reproduction: average per-GPU, per-iteration HBM and UVM
 * access counts for every strategy. The paper's headline: baselines
 * source 20.3% (RM2) and 36.3% (RM3) of accesses from UVM while
 * RecShard sources 0.2% / 0.5%.
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_table5_access_counts");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    TextTable t({"Model", "Strategy", "HBM/GPU/iter", "UVM/GPU/iter",
                 "UVM %", "Paper UVM %"});
    int paper_row = 0;
    for (const ModelEvaluation &eval :
         evaluateModels(cfg, {"rm1", "rm2", "rm3"})) {
        for (const auto &s : eval.strategies) {
            const auto &p = paper::kTable5[paper_row++];
            const double paper_uvm_pct = p.hbm + p.uvm > 0
                ? 100.0 * p.uvm / (p.hbm + p.uvm) : 0.0;
            t.addRow({eval.modelName, s.name,
                      fmtDouble(s.hbmAccessesPerGpuIter() / 1e6, 2)
                          + "M",
                      fmtDouble(s.uvmAccessesPerGpuIter() / 1e6, 3)
                          + "M",
                      fmtDouble(100 * s.uvmAccessFraction(), 2) +
                          "%",
                      fmtDouble(paper_uvm_pct, 2) + "%"});
        }
    }
    t.print(std::cout,
            "Table 5: per-GPU per-iteration EMB accesses by tier");
    std::cout << "\nPaper: baselines source 20.3% (RM2) / 36.3% "
              << "(RM3) of accesses from UVM; RecShard 0.2% / "
              << "0.5%.\n";
    return 0;
}
