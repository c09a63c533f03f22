/**
 * @file
 * Table 4 reproduction: placement disparity between the baselines
 * and RecShard — the percentage of EMB rows a baseline placed in
 * UVM that RecShard placed in HBM (UVM->HBM), and vice versa
 * (HBM->UVM), for the capacity-constrained models.
 */

#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"

using namespace recshard;

namespace {

/**
 * Baselines place whole tables, RecShard splits by rank, so row
 * overlap reduces to per-table arithmetic: a baseline-UVM table
 * contributes its RecShard HBM rows to UVM->HBM; a baseline-HBM
 * table contributes its RecShard UVM rows to HBM->UVM.
 */
struct Disparity
{
    double uvmToHbm;
    double hbmToUvm;
};

Disparity
disparity(const StrategyResult &base, const StrategyResult &rs)
{
    std::uint64_t base_uvm_rows = 0, base_uvm_in_rs_hbm = 0;
    std::uint64_t base_hbm_rows = 0, base_hbm_in_rs_uvm = 0;
    for (std::size_t j = 0; j < base.hashSize.size(); ++j) {
        if (base.hbmRows[j] == 0) { // baseline table in UVM
            base_uvm_rows += base.hashSize[j];
            base_uvm_in_rs_hbm += rs.hbmRows[j];
        } else {                    // baseline table in HBM
            base_hbm_rows += base.hashSize[j];
            base_hbm_in_rs_uvm += base.hashSize[j] - rs.hbmRows[j];
        }
    }
    Disparity d{0.0, 0.0};
    if (base_uvm_rows)
        d.uvmToHbm = 100.0 * static_cast<double>(base_uvm_in_rs_hbm)
            / static_cast<double>(base_uvm_rows);
    if (base_hbm_rows)
        d.hbmToUvm = 100.0 * static_cast<double>(base_hbm_in_rs_uvm)
            / static_cast<double>(base_hbm_rows);
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("bench_table4_disparity");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    struct PaperRow
    {
        const char *model;
        double sb_u2h, lb_u2h, sbl_u2h;
        double sb_h2u, lb_h2u, sbl_h2u;
    };
    const PaperRow paper_rows[] = {
        {"RM2", 28.67, 28.26, 28.26, 39.93, 39.99, 39.99},
        {"RM3", 23.29, 23.21, 23.21, 58.34, 59.36, 59.36},
    };

    TextTable t({"Model", "Disparity", "SB", "LB", "SBL",
                 "Paper (SB/LB/SBL)"});
    int pr = 0;
    for (const ModelEvaluation &eval : evaluateModels(cfg, {"rm2", "rm3"})) {
        const StrategyResult &rs = eval.byName("RecShard");
        const Disparity sb = disparity(eval.byName("Size-Based"),
                                       rs);
        const Disparity lb = disparity(eval.byName("Lookup-Based"),
                                       rs);
        const Disparity sbl =
            disparity(eval.byName("Size-Based-Lookup"), rs);
        const PaperRow &p = paper_rows[pr++];
        t.addRow({eval.modelName, "UVM->HBM",
                  fmtDouble(sb.uvmToHbm, 2) + "%",
                  fmtDouble(lb.uvmToHbm, 2) + "%",
                  fmtDouble(sbl.uvmToHbm, 2) + "%",
                  fmtDouble(p.sb_u2h, 2) + "/" +
                      fmtDouble(p.lb_u2h, 2) + "/" +
                      fmtDouble(p.sbl_u2h, 2)});
        t.addRow({eval.modelName, "HBM->UVM",
                  fmtDouble(sb.hbmToUvm, 2) + "%",
                  fmtDouble(lb.hbmToUvm, 2) + "%",
                  fmtDouble(sbl.hbmToUvm, 2) + "%",
                  fmtDouble(p.sb_h2u, 2) + "/" +
                      fmtDouble(p.lb_h2u, 2) + "/" +
                      fmtDouble(p.sbl_h2u, 2)});
    }
    t.print(std::cout,
            "Table 4: rows the baselines placed in UVM (resp. HBM) "
            "that RecShard placed in HBM (resp. UVM); RM1 needs no "
            "UVM");
    return 0;
}
