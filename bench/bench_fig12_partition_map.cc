/**
 * @file
 * Fig. 12 reproduction: RecShard's partitioning decisions for RM2 —
 * per GPU, the number of EMBs assigned and the spread of per-EMB
 * UVM fractions (each bar of the paper's figure is one EMB).
 */

#include <algorithm>
#include <iostream>

#include "recshard/base/stats.hh"
#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_fig12_partition_map");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    const ModelEvaluation eval = evaluateModels(cfg, {"rm2"})[0];
    const StrategyResult &rs = eval.byName("RecShard");

    const std::uint32_t gpus = static_cast<std::uint32_t>(
        rs.gpuMeanTime.size());
    TextTable t({"GPU", "# EMBs", "UVM% min", "UVM% median",
                 "UVM% max", "Split tables"});
    std::uint64_t total_rows = 0, total_uvm = 0;
    RunningStat per_emb_uvm;
    for (std::uint32_t m = 0; m < gpus; ++m) {
        std::vector<double> uvm_pct;
        int split = 0;
        for (std::size_t j = 0; j < rs.hashSize.size(); ++j) {
            if (rs.gpu[j] != m)
                continue;
            const double pct = 100.0 *
                static_cast<double>(rs.hashSize[j] - rs.hbmRows[j]) /
                static_cast<double>(rs.hashSize[j]);
            uvm_pct.push_back(pct);
            per_emb_uvm.push(pct);
            split += rs.hbmRows[j] > 0 &&
                rs.hbmRows[j] < rs.hashSize[j];
        }
        if (uvm_pct.empty()) {
            t.addRow({std::to_string(m), "0", "-", "-", "-", "0"});
            continue;
        }
        t.addRow({std::to_string(m),
                  std::to_string(uvm_pct.size()),
                  fmtDouble(percentile(uvm_pct, 0.0), 1),
                  fmtDouble(percentile(uvm_pct, 0.5), 1),
                  fmtDouble(percentile(uvm_pct, 1.0), 1),
                  std::to_string(split)});
    }
    for (std::size_t j = 0; j < rs.hashSize.size(); ++j) {
        total_rows += rs.hashSize[j];
        total_uvm += rs.hashSize[j] - rs.hbmRows[j];
    }
    t.print(std::cout,
            "Fig. 12: RecShard partitions/placements for RM2");
    std::cout << "\nTotal rows on UVM: "
              << fmtDouble(100.0 * static_cast<double>(total_uvm) /
                               static_cast<double>(total_rows),
                           1)
              << "% (paper: 61%); mean per-EMB UVM share: "
              << fmtDouble(per_emb_uvm.mean(), 1)
              << "% (paper: 53.4%)\n";
    std::cout << "Paper: EMB count per GPU is variable (17-34) and "
              << "per-EMB UVM fractions are unique per table.\n";
    return 0;
}
