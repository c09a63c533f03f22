#include "recshard/sharding/milp_formulation.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "recshard/base/logging.hh"
#include "recshard/lp/problem.hh"

namespace recshard {

ShardMilpModel
buildShardMilp(const ModelSpec &model,
               const std::vector<EmbProfile> &profiles,
               const SystemSpec &system, const MilpShardOptions &opts)
{
    ShardMilpModel out;
    out.inputs = buildShardInputs(model, profiles, opts.icdfSteps,
                                  opts.ablation);
    const EmbCostModel cost_model(system, opts.combine);
    const int M = static_cast<int>(system.numGpus);
    const int J = static_cast<int>(out.inputs.size());
    const int S = static_cast<int>(opts.icdfSteps);
    out.numGpus = M;
    out.numSteps = S;
    const auto &inputs = out.inputs;

    const int binaries = M * J + (S + 1) * J;
    fatal_if(binaries > opts.maxBinaries,
             "exact MILP instance has ", binaries,
             " binaries (limit ", opts.maxBinaries,
             "); use recShardPlan() for instances of this size");

    // Normalize units so the simplex works on O(1) coefficients:
    // memory in units of the largest table, cost in units of the
    // largest per-EMB cost. Binary extraction is unaffected; the
    // reported objective is scaled back at the end.
    std::vector<double> cj_max(J), mem_max(J);
    double cost_unit = 0.0, mem_unit = 0.0;
    for (int j = 0; j < J; ++j) {
        cj_max[j] = cost_model.twoTierCost(
            inputs[j].stepBytes(opts.batchSize), 0.0);
        mem_max[j] = static_cast<double>(inputs[j].memAtStep(
            static_cast<unsigned>(S)));
        cost_unit = std::max(cost_unit, cj_max[j]);
        mem_unit = std::max(mem_unit,
                            static_cast<double>(
                                inputs[j].tableBytes));
    }
    cost_unit = std::max(cost_unit, 1e-300);
    mem_unit = std::max(mem_unit, 1.0);
    for (int j = 0; j < J; ++j) {
        cj_max[j] /= cost_unit;
        mem_max[j] /= mem_unit;
    }
    out.costUnit = cost_unit;
    out.memUnit = mem_unit;
    const double cap_hbm =
        static_cast<double>(system.hbm.capacityBytes) / mem_unit;
    const double cap_uvm =
        static_cast<double>(system.uvm.capacityBytes) / mem_unit;

    LpProblem &lp = out.lp;

    // ---- Variables -----------------------------------------------
    // Objective: minimize C (the max per-GPU cost).
    out.vC = lp.addVariable(0, kLpInf, 1.0, "C");

    std::vector<int> vGpuCost(M); // c_m
    for (int m = 0; m < M; ++m)
        vGpuCost[m] = lp.addVariable(0, kLpInf, 0,
                                     "c_" + std::to_string(m));

    // p[m][j] assignment binaries; symmetry breaking fixes
    // p[m][j] == 0 for m > j (GPUs are interchangeable).
    out.vP.assign(M, std::vector<int>(J));
    auto &vP = out.vP;
    for (int m = 0; m < M; ++m) {
        for (int j = 0; j < J; ++j) {
            const double ub =
                opts.symmetryBreak && m > j ? 0.0 : 1.0;
            vP[m][j] = lp.addVariable(0, ub, 0,
                                      "p_" + std::to_string(m) + "_" +
                                      std::to_string(j));
            if (ub > 0)
                out.integerVars.push_back(vP[m][j]);
        }
    }

    // x[i][j] step-selection binaries.
    out.vX.assign(S + 1, std::vector<int>(J));
    auto &vX = out.vX;
    for (int i = 0; i <= S; ++i) {
        for (int j = 0; j < J; ++j) {
            vX[i][j] = lp.addVariable(0, 1, 0,
                                      "x_" + std::to_string(i) + "_" +
                                      std::to_string(j));
            out.integerVars.push_back(vX[i][j]);
        }
    }

    // Per-EMB continuous cost c_j and HBM bytes mem_j (both in
    // normalized units), plus the McCormick products
    // w_mj = p_mj * c_j and u_mj = p_mj * mem_j.
    std::vector<int> vCj(J), vMem(J);
    for (int j = 0; j < J; ++j) {
        vCj[j] = lp.addVariable(0, cj_max[j], 0,
                                "cj_" + std::to_string(j));
        vMem[j] = lp.addVariable(0, mem_max[j], 0,
                                 "mem_" + std::to_string(j));
    }
    std::vector<std::vector<int>> vW(M, std::vector<int>(J));
    std::vector<std::vector<int>> vU(M, std::vector<int>(J));
    for (int m = 0; m < M; ++m) {
        for (int j = 0; j < J; ++j) {
            vW[m][j] = lp.addVariable(0, cj_max[j], 0);
            vU[m][j] = lp.addVariable(0, mem_max[j], 0);
        }
    }

    // ---- Constraints ---------------------------------------------
    // (1) c_m <= C.
    for (int m = 0; m < M; ++m)
        lp.addConstraint({{vGpuCost[m], 1}, {out.vC, -1}},
                         Relation::LE, 0);

    // (2) each EMB on exactly one GPU.
    for (int j = 0; j < J; ++j) {
        std::vector<LinearTerm> terms;
        for (int m = 0; m < M; ++m)
            terms.push_back({vP[m][j], 1});
        lp.addConstraint(terms, Relation::EQ, 1);
    }

    // (6) exactly one ICDF step per EMB.
    for (int j = 0; j < J; ++j) {
        std::vector<LinearTerm> terms;
        for (int i = 0; i <= S; ++i)
            terms.push_back({vX[i][j], 1});
        lp.addConstraint(terms, Relation::EQ, 1);
    }

    // (4) mem_j = sum_i x_ij * ICDF_j(i) * row bytes.
    // (5)+(11) folded: c_j = sum_i x_ij * cost_j(i/S), where
    // cost_j is Constraint 11's per-EMB forward-pass estimate
    // (without the coverage weight, which Constraint 12 applies).
    for (int j = 0; j < J; ++j) {
        std::vector<LinearTerm> mem_terms{{vMem[j], -1}};
        std::vector<LinearTerm> cost_terms{{vCj[j], -1}};
        for (int i = 0; i <= S; ++i) {
            mem_terms.push_back(
                {vX[i][j],
                 static_cast<double>(inputs[j].memAtStep(i)) /
                     mem_unit});
            const double pct = static_cast<double>(i) / S;
            const double cji = cost_model.twoTierCost(
                inputs[j].stepBytes(opts.batchSize), pct) / cost_unit;
            cost_terms.push_back({vX[i][j], cji});
        }
        lp.addConstraint(mem_terms, Relation::EQ, 0);
        lp.addConstraint(cost_terms, Relation::EQ, 0);
    }

    // McCormick envelopes (exact for binary p):
    //   u_mj >= mem_j - mem_max*(1 - p_mj), u_mj <= mem_j,
    //   u_mj <= mem_max * p_mj; likewise for w_mj with c_j.
    for (int m = 0; m < M; ++m) {
        for (int j = 0; j < J; ++j) {
            lp.addConstraint({{vU[m][j], 1}, {vMem[j], -1},
                              {vP[m][j], -mem_max[j]}},
                             Relation::GE, -mem_max[j]);
            lp.addConstraint({{vU[m][j], 1}, {vMem[j], -1}},
                             Relation::LE, 0);
            lp.addConstraint({{vU[m][j], 1},
                              {vP[m][j], -mem_max[j]}},
                             Relation::LE, 0);

            lp.addConstraint({{vW[m][j], 1}, {vCj[j], -1},
                              {vP[m][j], -cj_max[j]}},
                             Relation::GE, -cj_max[j]);
            lp.addConstraint({{vW[m][j], 1}, {vCj[j], -1}},
                             Relation::LE, 0);
            lp.addConstraint({{vW[m][j], 1},
                              {vP[m][j], -cj_max[j]}},
                             Relation::LE, 0);
        }
    }

    // (9) per-GPU HBM capacity over the products u_mj.
    // (10) per-GPU host-DRAM capacity: table bytes minus HBM bytes.
    for (int m = 0; m < M; ++m) {
        std::vector<LinearTerm> hbm_terms, uvm_terms;
        for (int j = 0; j < J; ++j) {
            hbm_terms.push_back({vU[m][j], 1});
            uvm_terms.push_back(
                {vP[m][j],
                 static_cast<double>(inputs[j].tableBytes) /
                     mem_unit});
            uvm_terms.push_back({vU[m][j], -1});
        }
        lp.addConstraint(hbm_terms, Relation::LE, cap_hbm);
        lp.addConstraint(uvm_terms, Relation::LE, cap_uvm);
    }

    // (12) c_m = sum_j coverage_j * w_mj.
    for (int m = 0; m < M; ++m) {
        std::vector<LinearTerm> terms{{vGpuCost[m], -1}};
        for (int j = 0; j < J; ++j)
            terms.push_back({vW[m][j], inputs[j].coverage});
        lp.addConstraint(terms, Relation::EQ, 0);
    }

    return out;
}

MilpShardResult
milpShardPlan(const ModelSpec &model,
              const std::vector<EmbProfile> &profiles,
              const SystemSpec &system, const MilpShardOptions &opts)
{
    const ShardMilpModel fm = buildShardMilp(model, profiles, system,
                                             opts);
    const int M = fm.numGpus;
    const int S = fm.numSteps;
    const int J = static_cast<int>(fm.inputs.size());

    MilpShardResult result;
    result.numVars = fm.lp.numVars();
    result.numConstraints = fm.lp.numConstraints();
    result.numBinaries = static_cast<int>(fm.integerVars.size());

    MilpSolver solver(fm.lp, fm.integerVars, opts.milp);
    result.milp = solver.solve();
    // Report the objective in real (seconds) units. Guard the
    // scaling: with no incumbent the objective is +inf (and a
    // default-constructed MilpResult would carry 0.0) — neither is
    // a cost, so neither may be scaled into one.
    if (std::isfinite(result.milp.objective))
        result.milp.objective *= fm.costUnit;
    if (std::isfinite(result.milp.bestBound))
        result.milp.bestBound *= fm.costUnit;
    if (result.milp.status != LpStatus::Optimal)
        return result;
    result.feasible = true;

    // ---- Extraction ----------------------------------------------
    result.plan.strategy = "RecShard-MILP";
    result.plan.tables.resize(J);
    for (int j = 0; j < J; ++j) {
        int best_m = 0;
        for (int m = 1; m < M; ++m) {
            if (result.milp.values[fm.vP[m][j]] >
                result.milp.values[fm.vP[best_m][j]]) {
                best_m = m;
            }
        }
        int best_i = 0;
        for (int i = 1; i <= S; ++i) {
            if (result.milp.values[fm.vX[i][j]] >
                result.milp.values[fm.vX[best_i][j]]) {
                best_i = i;
            }
        }
        EmbPlacement &t = result.plan.tables[j];
        t.gpu = static_cast<std::uint32_t>(best_m);
        t.hbmRows = fm.inputs[j].icdfRows[best_i];
        t.hbmAccessFraction = static_cast<double>(best_i) / S;
    }
    result.plan.validate(model, system);
    return result;
}

} // namespace recshard
