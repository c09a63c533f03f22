#include "recshard/sharding/recshard_solver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"
#include "recshard/sharding/split_walk.hh"

namespace recshard {

namespace {

/** Local-search rounds: each accepts at most one move or swap. */
constexpr std::uint32_t kLocalSearchRounds = 400;

/**
 * Swap candidates from which one swap search prices on the
 * parallelFor team. A candidate walks two GPUs' block lists, about a
 * microsecond at 64 EMBs on 8 GPUs, so below this the team's start
 * (base/parallel.hh) would cost more than it saves; a serving
 * node's few EMBs never reach it.
 */
constexpr std::size_t kParallelMinSwaps = 256;

/** Bottleneck member jj swapped with GPU h's member kk. */
struct SwapCandidate
{
    std::uint32_t jj;
    std::uint32_t h;
    std::uint32_t kk;
};

using Priced = SplitWalker::Priced;
constexpr std::uint32_t kNone = SplitWalker::kNone;

} // namespace

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

    SplitWalker walker(inputs, cost_model, opts.batchSize);
    const std::uint64_t cap_hbm = system.hbm.capacityBytes;
    const std::uint64_t cap_uvm = system.uvm.capacityBytes;

    // ---- Phase 1: global split over the pooled HBM budget --------
    std::vector<std::uint32_t> all(J);
    std::iota(all.begin(), all.end(), 0);
    const GpuBudgetSplit global =
        walker.split(all, walker.walkList(all),
                     static_cast<std::uint64_t>(M) * cap_hbm,
                     static_cast<std::uint64_t>(M) * cap_uvm);
    fatal_if(!global.feasible,
             "global split infeasible despite capacity pre-check");

    // ---- Phase 2: LPT assignment of estimated costs ---------------
    std::vector<double> est_cost(J);
    for (std::uint32_t j = 0; j < J; ++j)
        est_cost[j] = walker.embCost(j, global.step[j],
                                     global.tailTaken[j]);

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
    std::vector<std::vector<SplitWalker::Block>> lists(M);
    std::vector<GpuBudgetSplit> splits(M);
    auto resplit = [&](std::uint32_t m) {
        lists[m] = walker.walkList(members[m]);
        splits[m] = walker.split(members[m], lists[m], cap_hbm,
                                 cap_uvm);
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

    // A candidate improves only if its max lands this far below the
    // incumbent; any cost bound at or above it prunes the candidate.
    auto improves = [](double cand, double best) {
        return cand < best - 1e-15;
    };
    for (std::uint32_t round = 0; round < kLocalSearchRounds; ++round) {
        const std::uint32_t g = bottleneck();
        const double current_max = splits[g].cost;
        if (members[g].empty())
            break;

        double best_max = current_max;
        int best_j = -1, best_h = -1, best_k = -1;

        // Moves: each member of g to each other GPU. The removal
        // price is shared across target GPUs.
        for (std::uint32_t jj = 0; jj < members[g].size(); ++jj) {
            const std::uint32_t j = members[g][jj];
            const Priced gs = walker.price(members[g], lists[g], jj,
                                           kNone, cap_hbm, cap_uvm);
            if (!gs.feasible)
                continue;
            for (std::uint32_t h = 0; h < M; ++h) {
                if (h == g)
                    continue;
                const double bound =
                    std::max(max_excluding(g, h), gs.cost);
                if (!improves(bound, best_max))
                    continue;
                const Priced hs = walker.price(
                    members[h], lists[h], kNone, j, cap_hbm, cap_uvm);
                if (!hs.feasible)
                    continue;
                const double cand = std::max(bound, hs.cost);
                if (improves(cand, best_max)) {
                    best_max = cand;
                    best_j = static_cast<int>(j);
                    best_h = static_cast<int>(h);
                }
            }
        }

        // Swaps: bottleneck's costliest members against other GPUs'
        // members (tried only when no improving move exists). The
        // search stops at the first improving swap in (heavy member,
        // h, kk) order, so until then every candidate is pruned
        // against current_max alone and prices the same whichever
        // finds it first. Large searches therefore price their
        // candidates on the worker team and take the first hit.
        if (best_j < 0) {
            std::vector<std::uint32_t> heavy = members[g];
            std::sort(heavy.begin(), heavy.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return est_cost[a] > est_cost[b];
                      });
            if (heavy.size() > 8)
                heavy.resize(8);
            std::vector<double> others(M);
            for (std::uint32_t h = 0; h < M; ++h)
                others[h] = max_excluding(g, h);
            std::vector<SwapCandidate> cands;
            for (const std::uint32_t j : heavy) {
                const auto jj = static_cast<std::uint32_t>(
                    std::find(members[g].begin(), members[g].end(), j) -
                    members[g].begin());
                for (std::uint32_t h = 0; h < M; ++h) {
                    if (h == g || !improves(others[h], current_max))
                        continue;
                    for (std::uint32_t kk = 0; kk < members[h].size();
                         ++kk)
                        cands.push_back({jj, h, kk});
                }
            }
            // A candidate past the first hit found so far cannot be
            // the first hit, so workers skip it.
            std::atomic<std::size_t> first_hit{cands.size()};
            std::vector<SplitWalker::Scratch> scratch(
                parallelWorkers(cands.size()));
            const auto try_swap = [&](std::size_t w, std::size_t i) {
                if (i > first_hit.load())
                    return;
                const SwapCandidate &c = cands[i];
                const Priced gs = walker.price(
                    scratch[w], members[g], lists[g], c.jj,
                    members[c.h][c.kk], cap_hbm, cap_uvm);
                if (!gs.feasible)
                    return;
                const double bound = std::max(others[c.h], gs.cost);
                if (!improves(bound, current_max))
                    return;
                const Priced hs = walker.price(
                    scratch[w], members[c.h], lists[c.h], c.kk,
                    members[g][c.jj], cap_hbm, cap_uvm);
                if (!hs.feasible)
                    return;
                if (!improves(std::max(bound, hs.cost), current_max))
                    return;
                std::size_t seen = first_hit.load();
                while (i < seen &&
                       !first_hit.compare_exchange_weak(seen, i)) {
                }
            };
            parallelFor(cands.size(), try_swap, kParallelMinSwaps);
            const std::size_t hit = first_hit.load();
            if (hit < cands.size()) {
                const SwapCandidate &c = cands[hit];
                best_j = static_cast<int>(members[g][c.jj]);
                best_h = static_cast<int>(c.h);
                best_k = static_cast<int>(members[c.h][c.kk]);
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
        // The new member orders match the priced candidate's; rebuild
        // the two touched GPUs' walk lists and splits.
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
