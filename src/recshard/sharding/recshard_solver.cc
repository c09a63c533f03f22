#include "recshard/sharding/recshard_solver.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <queue>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/**
 * Per-EMB cost curve. The profiled ICDF covers the (1 - M) share of
 * accesses the profile observed; the Good-Turing missing mass M is
 * carried by the unprofiled tail rows, uniformly. Moving profiled
 * step i or tail rows into HBM each converts its share of traffic
 * from UVM- to HBM-bandwidth service.
 */
struct Curve
{
    double wBytes = 0.0;         //!< coverage*pool*rowBytes*batch
    double stepGain = 0.0;       //!< gain per profiled ICDF step
    double tailGainPerRow = 0.0; //!< gain per tail row moved
};

/** Bandwidths + combine mode shared by all cost evaluations. */
struct SolverCtx
{
    double bwHbm = 1.0;
    double bwUvm = 1.0;
    EmbCostModel::Combine combine = EmbCostModel::Combine::Sum;

    /** Coverage-weighted cost given the true HBM access share. */
    double
    cost(double w_bytes, double true_pct) const
    {
        const double uvm = (1.0 - true_pct) * w_bytes / bwUvm;
        const double hbm = true_pct * w_bytes / bwHbm;
        return combine == EmbCostModel::Combine::Sum
            ? uvm + hbm : std::max(uvm, hbm);
    }
};

/** Per-EMB curve setup shared by recShardPlan and splitGpuBudget. */
Curve
buildCurve(const EmbShardInput &in, std::uint32_t batch,
           const SolverCtx &ctx)
{
    Curve c;
    c.wBytes = in.coverage * in.avgPool *
        static_cast<double>(in.rowBytes) *
        static_cast<double>(batch);
    const double gain_unit =
        c.wBytes * (1.0 / ctx.bwUvm - 1.0 / ctx.bwHbm);
    c.stepGain = gain_unit * (1.0 - in.missingMass) / in.numSteps();
    c.tailGainPerRow = in.tailRows == 0
        ? 0.0
        : gain_unit * in.missingMass /
            static_cast<double>(in.tailRows);
    return c;
}

/**
 * True HBM access share of one EMB split at `step` of its ICDF with
 * `tail_taken` unprofiled tail rows pinned: the profiled share plus
 * the Good-Turing missing mass carried by the pinned tail.
 */
double
embHbmTruePct(const EmbShardInput &in, unsigned step,
              std::uint64_t tail_taken)
{
    const double profiled = (1.0 - in.missingMass) *
        static_cast<double>(step) / in.numSteps();
    const double tail = in.tailRows == 0
        ? in.missingMass
        : in.missingMass * static_cast<double>(tail_taken) /
            static_cast<double>(in.tailRows);
    return profiled + tail;
}

/**
 * Greedy marginal-benefit allocation of an HBM budget across the
 * member EMBs: profiled ICDF increments and unprofiled tail chunks
 * compete on cost-gain-per-byte (optimal for concave CDFs), with a
 * forced spill of whatever tail remains when the UVM budget would
 * otherwise overflow.
 */
GpuBudgetSplit
splitMembers(const std::vector<EmbShardInput> &inputs,
             const std::vector<Curve> &curves,
             const SolverCtx &ctx,
             const std::vector<std::uint32_t> &members,
             std::uint64_t cap_hbm, std::uint64_t cap_uvm)
{
    GpuBudgetSplit out;
    out.step.assign(members.size(), 0);
    out.hbmRows.assign(members.size(), 0);
    out.tailTaken.assign(members.size(), 0);

    // Heap entry: the next increment of one member, either a
    // profiled ICDF step or a chunk of unprofiled tail rows. Ratios
    // are non-increasing within each member sequence, so heap order
    // is safe.
    struct Item
    {
        double ratio;
        std::uint32_t member;
        bool isTail;
        unsigned nextStep;       //!< profiled step (when !isTail)
        std::uint64_t deltaRows; //!< tail rows (when isTail)
        std::uint64_t deltaBytes;
    };
    auto cmp = [](const Item &a, const Item &b) {
        if (a.ratio != b.ratio)
            return a.ratio < b.ratio;
        if (a.member != b.member)
            return a.member > b.member;
        return a.isTail && !b.isTail;
    };
    std::priority_queue<Item, std::vector<Item>, decltype(cmp)>
        heap(cmp);

    auto push_step = [&](std::uint32_t k, unsigned next_step) {
        const auto &in = inputs[members[k]];
        if (next_step > in.numSteps())
            return;
        const std::uint64_t delta =
            (in.icdfRows[next_step] - in.icdfRows[next_step - 1]) *
            in.rowBytes;
        const double gain = curves[members[k]].stepGain;
        const double ratio = delta == 0
            ? std::numeric_limits<double>::infinity()
            : gain / static_cast<double>(delta);
        heap.push(Item{ratio, k, false, next_step, 0, delta});
    };
    auto push_tail = [&](std::uint32_t k) {
        const auto &in = inputs[members[k]];
        const std::uint64_t left = in.tailRows - out.tailTaken[k];
        if (left == 0)
            return;
        // Offer the tail in chunks so it interleaves with other
        // members fairly.
        const std::uint64_t chunk =
            std::min(left, std::max<std::uint64_t>(
                               1, in.tailRows / 8));
        const double gain = curves[members[k]].tailGainPerRow *
            static_cast<double>(chunk);
        const std::uint64_t bytes = chunk * in.rowBytes;
        const double ratio = bytes == 0
            ? std::numeric_limits<double>::infinity()
            : gain / static_cast<double>(bytes);
        heap.push(Item{ratio, k, true, 0, chunk, bytes});
    };

    std::uint64_t budget = cap_hbm;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        push_step(k, 1);
        push_tail(k);
    }
    while (!heap.empty()) {
        const Item item = heap.top();
        heap.pop();
        if (item.deltaBytes > budget)
            continue; // this sequence's later increments only grow
        budget -= item.deltaBytes;
        if (item.isTail) {
            out.tailTaken[item.member] += item.deltaRows;
            push_tail(item.member);
        } else {
            out.step[item.member] = item.nextStep;
            push_step(item.member, item.nextStep + 1);
        }
    }
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        out.hbmRows[k] =
            inputs[members[k]].icdfRows[out.step[k]] +
            out.tailTaken[k];
    }

    // Forced spill: if the UVM budget still overflows, move
    // whatever rows remain into leftover HBM, largest tails first.
    std::uint64_t uvm_bytes = 0;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        const auto &in = inputs[members[k]];
        uvm_bytes += in.tableBytes - out.hbmRows[k] * in.rowBytes;
    }
    if (uvm_bytes > cap_uvm) {
        std::uint64_t need = uvm_bytes - cap_uvm;
        std::vector<std::uint32_t> order(members.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const auto ta = inputs[members[a]].hashSize -
                          out.hbmRows[a];
                      const auto tb = inputs[members[b]].hashSize -
                          out.hbmRows[b];
                      if (ta != tb)
                          return ta > tb;
                      return a < b;
                  });
        for (const std::uint32_t k : order) {
            if (need == 0)
                break;
            const auto &in = inputs[members[k]];
            const std::uint64_t movable_rows = std::min(
                in.hashSize - out.hbmRows[k], budget / in.rowBytes);
            const std::uint64_t moved = std::min(
                movable_rows,
                (need + in.rowBytes - 1) / in.rowBytes);
            out.hbmRows[k] += moved;
            const std::uint64_t tail_part = std::min(
                moved, in.tailRows - out.tailTaken[k]);
            out.tailTaken[k] += tail_part;
            budget -= moved * in.rowBytes;
            need -= std::min(need, moved * in.rowBytes);
        }
        if (need > 0)
            return out; // infeasible: both tiers exhausted
    }

    out.feasible = true;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        const auto &in = inputs[members[k]];
        out.cost += ctx.cost(
            curves[members[k]].wBytes,
            embHbmTruePct(in, out.step[k], out.tailTaken[k]));
    }
    return out;
}

} // namespace

GpuBudgetSplit
splitGpuBudget(const std::vector<EmbShardInput> &inputs,
               const EmbCostModel &cost_model, std::uint32_t batch,
               const std::vector<std::uint32_t> &members,
               std::uint64_t cap_hbm, std::uint64_t cap_uvm)
{
    SolverCtx ctx;
    ctx.bwHbm = cost_model.hbmBandwidth();
    ctx.bwUvm = cost_model.uvmBandwidth();
    ctx.combine = cost_model.combine();
    std::vector<Curve> curves(inputs.size());
    for (const std::uint32_t j : members)
        curves[j] = buildCurve(inputs[j], batch, ctx);
    return splitMembers(inputs, curves, ctx, members, cap_hbm,
                        cap_uvm);
}

ShardingPlan
recShardPlan(const ModelSpec &model,
             const std::vector<EmbProfile> &profiles,
             const SystemSpec &system, const RecShardOptions &opts,
             RecShardStats *stats)
{
    using Clock = std::chrono::steady_clock;
    // lint:allow(no-wallclock): solve-time diagnostic only; never reaches the plan
    const auto t_start = Clock::now();

    const auto inputs = buildShardInputs(model, profiles,
                                         opts.icdfSteps, opts.ablation);
    const EmbCostModel cost_model(system, opts.combine);
    const std::uint32_t M = system.numGpus;
    const auto J = static_cast<std::uint32_t>(inputs.size());

    std::uint64_t total_bytes = 0;
    for (const auto &in : inputs) {
        fatal_if(in.tableBytes >
                 system.hbm.capacityBytes + system.uvm.capacityBytes,
                 "one EMB (", in.tableBytes,
                 " bytes) exceeds a whole GPU's memory");
        total_bytes += in.tableBytes;
    }
    fatal_if(total_bytes > static_cast<std::uint64_t>(M) *
             (system.hbm.capacityBytes + system.uvm.capacityBytes),
             "model '", model.name, "' (", total_bytes,
             " bytes) cannot fit the system even using UVM");

    SolverCtx ctx;
    ctx.bwHbm = cost_model.hbmBandwidth();
    ctx.bwUvm = cost_model.uvmBandwidth();
    ctx.combine = cost_model.combine();

    std::vector<Curve> curves(J);
    for (std::uint32_t j = 0; j < J; ++j)
        curves[j] = buildCurve(inputs[j], opts.batchSize, ctx);

    // ---- Phase 1: global split over the pooled HBM budget --------
    std::vector<std::uint32_t> all(J);
    std::iota(all.begin(), all.end(), 0);
    const GpuBudgetSplit global = splitMembers(
        inputs, curves, ctx, all,
        static_cast<std::uint64_t>(M) * system.hbm.capacityBytes,
        static_cast<std::uint64_t>(M) * system.uvm.capacityBytes);
    fatal_if(!global.feasible,
             "global split infeasible despite capacity pre-check");

    // ---- Phase 2: LPT assignment of estimated costs ---------------
    std::vector<double> est_cost(J);
    for (std::uint32_t j = 0; j < J; ++j)
        est_cost[j] = ctx.cost(
            curves[j].wBytes,
            embHbmTruePct(inputs[j], global.step[j],
                          global.tailTaken[j]));

    std::vector<std::uint32_t> order(J);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (est_cost[a] != est_cost[b])
                      return est_cost[a] > est_cost[b];
                  return a < b;
              });

    std::vector<std::vector<std::uint32_t>> members(M);
    std::vector<double> gpu_cost(M, 0.0);
    std::vector<std::uint64_t> gpu_hbm(M, 0), gpu_uvm(M, 0);
    for (const std::uint32_t j : order) {
        const std::uint64_t hbm_b = global.hbmRows[j] *
            inputs[j].rowBytes;
        const std::uint64_t uvm_b = inputs[j].tableBytes - hbm_b;
        int best = -1;
        for (std::uint32_t m = 0; m < M; ++m) {
            const bool fits =
                gpu_hbm[m] + hbm_b <= system.hbm.capacityBytes &&
                gpu_uvm[m] + uvm_b <= system.uvm.capacityBytes;
            if (fits && (best < 0 ||
                         gpu_cost[m] < gpu_cost[best])) {
                best = static_cast<int>(m);
            }
        }
        if (best < 0) {
            // Nothing fits with the global split; park it on the
            // GPU with the most free bytes and let the per-GPU
            // re-split repair the overflow.
            std::uint64_t best_free = 0;
            best = 0;
            for (std::uint32_t m = 0; m < M; ++m) {
                const std::uint64_t free_bytes =
                    (system.hbm.capacityBytes - gpu_hbm[m]) +
                    (system.uvm.capacityBytes -
                     std::min(system.uvm.capacityBytes, gpu_uvm[m]));
                if (free_bytes >= best_free) {
                    best_free = free_bytes;
                    best = static_cast<int>(m);
                }
            }
        }
        members[static_cast<std::size_t>(best)].push_back(j);
        gpu_cost[static_cast<std::size_t>(best)] += est_cost[j];
        gpu_hbm[static_cast<std::size_t>(best)] += hbm_b;
        gpu_uvm[static_cast<std::size_t>(best)] += uvm_b;
    }

    // ---- Phase 3: per-GPU re-split under real budgets -------------
    std::vector<GpuBudgetSplit> splits(M);
    auto resplit = [&](std::uint32_t m) {
        splits[m] = splitMembers(inputs, curves, ctx, members[m],
                                 system.hbm.capacityBytes,
                                 system.uvm.capacityBytes);
    };
    for (std::uint32_t m = 0; m < M; ++m)
        resplit(m);

    // Repair loop: while some GPU is infeasible, move its largest
    // table to the GPU with the most free capacity.
    for (int guard = 0; ; ++guard) {
        int bad = -1;
        for (std::uint32_t m = 0; m < M; ++m)
            if (!splits[m].feasible)
                bad = static_cast<int>(m);
        if (bad < 0)
            break;
        fatal_if(guard > static_cast<int>(J),
                 "unable to repair capacity overflow on GPU ", bad);
        auto &mem = members[static_cast<std::size_t>(bad)];
        fatal_if(mem.empty(), "infeasible GPU with no tables");
        std::size_t big = 0;
        for (std::size_t k = 1; k < mem.size(); ++k)
            if (inputs[mem[k]].tableBytes >
                inputs[mem[big]].tableBytes)
                big = k;
        const std::uint32_t j = mem[big];
        mem.erase(mem.begin() + static_cast<std::ptrdiff_t>(big));
        // Receiver: most free bytes under the current splits.
        std::uint32_t to = bad == 0 ? 1 : 0;
        std::uint64_t best_free = 0;
        for (std::uint32_t m = 0; m < M; ++m) {
            if (static_cast<int>(m) == bad)
                continue;
            std::uint64_t used = 0;
            for (const auto k : members[m])
                used += inputs[k].tableBytes;
            const std::uint64_t cap = system.hbm.capacityBytes +
                system.uvm.capacityBytes;
            const std::uint64_t free_bytes = cap > used ? cap - used
                                                        : 0;
            if (free_bytes >= best_free) {
                best_free = free_bytes;
                to = m;
            }
        }
        members[to].push_back(j);
        resplit(static_cast<std::uint32_t>(bad));
        resplit(to);
    }

    // ---- Phase 4: local search against the bottleneck GPU ---------
    std::uint32_t moves = 0, swaps = 0;
    auto bottleneck = [&]() {
        std::uint32_t g = 0;
        for (std::uint32_t m = 1; m < M; ++m)
            if (splits[m].cost > splits[g].cost)
                g = m;
        return g;
    };
    auto max_excluding = [&](std::uint32_t a, std::uint32_t b) {
        double mx = 0.0;
        for (std::uint32_t m = 0; m < M; ++m)
            if (m != a && m != b)
                mx = std::max(mx, splits[m].cost);
        return mx;
    };

    for (std::uint32_t round = 0; round < opts.localSearchRounds;
         ++round) {
        const std::uint32_t g = bottleneck();
        const double current_max = splits[g].cost;
        if (members[g].empty())
            break;

        double best_max = current_max;
        int best_j = -1, best_h = -1, best_k = -1;
        GpuBudgetSplit best_gs, best_hs;

        // Moves: each member of g to each other GPU. The removal
        // split is shared across target GPUs.
        for (std::size_t jj = 0; jj < members[g].size(); ++jj) {
            const std::uint32_t j = members[g][jj];
            std::vector<std::uint32_t> g_minus = members[g];
            g_minus.erase(g_minus.begin() +
                          static_cast<std::ptrdiff_t>(jj));
            const GpuBudgetSplit gs = splitMembers(
                inputs, curves, ctx, g_minus,
                system.hbm.capacityBytes,
                system.uvm.capacityBytes);
            if (!gs.feasible)
                continue;
            for (std::uint32_t h = 0; h < M; ++h) {
                if (h == g)
                    continue;
                std::vector<std::uint32_t> h_plus = members[h];
                h_plus.push_back(j);
                const GpuBudgetSplit hs = splitMembers(
                    inputs, curves, ctx, h_plus,
                    system.hbm.capacityBytes,
                    system.uvm.capacityBytes);
                if (!hs.feasible)
                    continue;
                const double cand = std::max(
                    {max_excluding(g, h), gs.cost, hs.cost});
                if (cand < best_max - 1e-15) {
                    best_max = cand;
                    best_j = static_cast<int>(j);
                    best_h = static_cast<int>(h);
                    best_k = -1;
                    best_gs = gs;
                    best_hs = hs;
                }
            }
        }

        // Swaps: bottleneck's costliest members against other GPUs'
        // members (tried only when no improving move exists).
        if (best_j < 0 && opts.enableSwaps) {
            std::vector<std::uint32_t> heavy = members[g];
            std::sort(heavy.begin(), heavy.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return est_cost[a] > est_cost[b];
                      });
            if (heavy.size() > 8)
                heavy.resize(8);
            for (const std::uint32_t j : heavy) {
                for (std::uint32_t h = 0; h < M && best_j < 0; ++h) {
                    if (h == g)
                        continue;
                    for (const std::uint32_t k : members[h]) {
                        std::vector<std::uint32_t> g_new, h_new;
                        for (const auto x : members[g])
                            if (x != j)
                                g_new.push_back(x);
                        g_new.push_back(k);
                        for (const auto x : members[h])
                            if (x != k)
                                h_new.push_back(x);
                        h_new.push_back(j);
                        const GpuBudgetSplit gs = splitMembers(
                            inputs, curves, ctx, g_new,
                            system.hbm.capacityBytes,
                            system.uvm.capacityBytes);
                        if (!gs.feasible)
                            continue;
                        const GpuBudgetSplit hs = splitMembers(
                            inputs, curves, ctx, h_new,
                            system.hbm.capacityBytes,
                            system.uvm.capacityBytes);
                        if (!hs.feasible)
                            continue;
                        const double cand = std::max(
                            {max_excluding(g, h), gs.cost, hs.cost});
                        if (cand < best_max - 1e-15) {
                            best_max = cand;
                            best_j = static_cast<int>(j);
                            best_h = static_cast<int>(h);
                            best_k = static_cast<int>(k);
                            best_gs = gs;
                            best_hs = hs;
                            break;
                        }
                    }
                }
                if (best_j >= 0)
                    break;
            }
        }

        if (best_j < 0)
            break; // local optimum

        const auto uj = static_cast<std::uint32_t>(best_j);
        const auto uh = static_cast<std::uint32_t>(best_h);
        members[g].erase(std::find(members[g].begin(),
                                   members[g].end(), uj));
        members[uh].push_back(uj);
        if (best_k >= 0) {
            const auto uk = static_cast<std::uint32_t>(best_k);
            members[uh].erase(std::find(members[uh].begin(),
                                        members[uh].end(), uk));
            members[g].push_back(uk);
            ++swaps;
        } else {
            ++moves;
        }
        // Member vectors were rebuilt in candidate order inside the
        // evaluation; recompute splits to match the new membership.
        resplit(g);
        resplit(uh);
    }

    // ---- Emit the plan --------------------------------------------
    ShardingPlan plan;
    plan.strategy = "RecShard";
    plan.tables.resize(J);
    for (std::uint32_t m = 0; m < M; ++m) {
        for (std::size_t k = 0; k < members[m].size(); ++k) {
            const std::uint32_t j = members[m][k];
            EmbPlacement &t = plan.tables[j];
            t.gpu = m;
            t.hbmRows = splits[m].hbmRows[k];
            t.hbmAccessFraction =
                profiles[j].cdf.accessFraction(t.hbmRows);
        }
    }
    plan.validate(model, system);

    if (stats) {
        stats->bottleneckCost = splits[bottleneck()].cost;
        stats->moves = moves;
        stats->swaps = swaps;
        stats->solveSeconds =
            // lint:allow(no-wallclock): solve-time diagnostic only
            std::chrono::duration<double>(Clock::now() - t_start)
                .count();
    }
    return plan;
}

} // namespace recshard
