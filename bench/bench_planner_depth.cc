/**
 * @file
 * The planner-depth acceptance bench, with its headline as the exit
 * code:
 *
 *  1. Quality/speed gate — on every MILP-feasible table set the
 *     "lp-rounding" planner must land within 2% of the exact MILP's
 *     uniform bottleneck cost at >= 10x the MILP's solve speed
 *     (the LP relaxation solves once; branch-and-bound re-solves an
 *     LP per node).
 *  2. Granularity sweep — "recshard" on rm1 (2-tier) at uniform
 *     ICDF step counts doubling from 8 to 512, printed per step
 *     count. Not gated: a finer grid is a superset of split points,
 *     so a cost that rises along the sweep is a solver defect, and
 *     this table reproduces it.
 *
 * A gate failure exits non-zero, so CI can smoke-run this binary as
 * a hard check.
 *
 * Run:   ./bench_planner_depth [--trials N] [--scale F] ...
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "recshard/base/flags.hh"
#include "recshard/base/table.hh"
#include "recshard/base/units.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"

using namespace recshard;

namespace {

/** One capacity-pressured instance small enough for the MILP. */
struct MilpInstance
{
    std::uint32_t features;
    std::uint64_t rows;
    std::uint64_t seed;
    unsigned icdfSteps;
};

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("bench_planner_depth");
    flags.addInt("trials", 8, "lp-rounding trials per solve");
    flags.addDouble("scale", 2e-4, "rm1 row-count scale");
    flags.addInt("batch", 4096, "cost-model batch size");
    flags.addInt("profile-samples", 20000, "profiling samples");
    flags.addDouble("cost-slack", 1.02,
                    "lp-rounding cost gate vs the MILP optimum");
    flags.addDouble("speedup", 10.0,
                    "required MILP / lp-rounding solve-time ratio");
    flags.parse(argc, argv);

    const auto batch =
        static_cast<std::uint32_t>(flags.getInt("batch"));
    const auto samples = static_cast<std::uint64_t>(
        flags.getInt("profile-samples"));
    const double cost_slack = flags.getDouble("cost-slack");
    const double need_speedup = flags.getDouble("speedup");
    bool ok = true;

    // ------------------- 1. within 2% of the MILP at >= 10x speed
    const MilpInstance instances[] = {
        {7, 2000, 71, 5},
        {6, 1200, 77, 5},
        {8, 2500, 83, 6},
    };
    TextTable head({"Instance", "MILP (ms)", "LP-round (ms)",
                    "Gap", "MILP solve", "LP solve", "Speedup",
                    "Pass"});
    for (const MilpInstance &inst : instances) {
        const ModelSpec model =
            makeTinyModel(inst.features, inst.rows, inst.seed);
        SyntheticDataset data(model, inst.seed + 1);
        const auto profiles = profileDataset(data, samples, 4096);
        SystemSpec sys = SystemSpec::paper(2, 1.0);
        sys.hbm.capacityBytes = model.totalBytes() / 5;
        sys.uvm.capacityBytes = model.totalBytes();

        PlanRequest req =
            PlanRequest::make(model, profiles, sys, batch);
        req.milp.icdfSteps = inst.icdfSteps;
        req.rounding.trials =
            static_cast<std::uint32_t>(flags.getInt("trials"));

        const PlanResult milp =
            PlannerRegistry::create("milp")->plan(req);
        const PlanResult lp =
            PlannerRegistry::create("lp-rounding")->plan(req);
        if (!milp.diag.feasible || !lp.diag.feasible) {
            std::cerr << "FAIL: infeasible result on a "
                         "MILP-feasible instance\n";
            ok = false;
            continue;
        }

        const double gap =
            lp.diag.bottleneckCost / milp.diag.bottleneckCost;
        const double speedup = lp.diag.solveSeconds > 0
            ? milp.diag.solveSeconds / lp.diag.solveSeconds
            : need_speedup;
        const bool pass =
            gap <= cost_slack && speedup >= need_speedup;
        ok = ok && pass;

        head.addRow({std::to_string(inst.features) + " EMBs x " +
                         std::to_string(inst.rows) + " rows",
                     fmtDouble(milp.diag.bottleneckCost * 1e3, 3),
                     fmtDouble(lp.diag.bottleneckCost * 1e3, 3),
                     fmtDouble(gap, 4),
                     formatSeconds(milp.diag.solveSeconds),
                     formatSeconds(lp.diag.solveSeconds),
                     fmtDouble(speedup, 1) + "x",
                     pass ? "yes" : "NO"});
    }
    head.print(std::cout,
               "lp-rounding vs exact MILP (gate: gap <= " +
                   fmtDouble(cost_slack, 2) + ", speedup >= " +
                   fmtDouble(need_speedup, 0) + "x)");

    // ------------------- 2. uniform-granularity doubling sweep
    const ModelSpec rm1 = makeRm1(flags.getDouble("scale"));
    SyntheticDataset rm1_data(rm1, 42);
    const auto rm1_profiles =
        profileDataset(rm1_data, samples, 2048);
    SystemSpec two_tier = SystemSpec::paper(2, 1.0);
    two_tier.hbm.capacityBytes =
        rm1.totalBytes() / (16 * two_tier.numGpus);
    two_tier.uvm.capacityBytes = rm1.totalBytes();

    PlanRequest sweep_req =
        PlanRequest::make(rm1, rm1_profiles, two_tier, batch);
    const auto recshard = PlannerRegistry::create("recshard");
    TextTable sweep_table(
        {"ICDF steps", "Bottleneck (ms)", "Solve time"});
    for (unsigned steps = 8; steps <= 512; steps *= 2) {
        sweep_req.solver.icdfSteps = steps;
        const PlanResult r = recshard->plan(sweep_req);
        sweep_table.addRow({std::to_string(steps),
                            fmtDouble(r.diag.bottleneckCost * 1e3, 3),
                            formatSeconds(r.diag.solveSeconds)});
    }
    sweep_table.print(std::cout,
                      "Uniform-granularity doubling sweep "
                      "(recshard on rm1 2-tier)");

    std::cout << "\n"
              << (ok ? "ALL GATES PASS" : "GATE FAILURE") << "\n";
    return ok ? 0 : 1;
}
