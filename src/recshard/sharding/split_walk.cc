#include "recshard/sharding/split_walk.hh"

#include <algorithm>

#include "recshard/base/parallel.hh"

namespace recshard {

namespace {

using Block = SplitWalker::Block;

/** Gain per HBM byte of one increment; free increments go first. */
double
gainPerByte(double gain, std::uint64_t bytes)
{
    return bytes == 0 ? std::numeric_limits<double>::infinity()
                      : gain / static_cast<double>(bytes);
}

bool
walksBefore(const Block &a, const Block &b)
{
    if (a.ratio != b.ratio)
        return a.ratio > b.ratio;
    if (a.pos != b.pos)
        return a.pos < b.pos;
    if (a.isTail != b.isTail)
        return !a.isTail;
    return a.begin < b.begin;
}

/** Cut one increment sequence into blocks; `rows` is empty for
 *  steps. */
void
appendBlocks(const std::vector<double> &ratio,
             const std::vector<std::uint64_t> &bytes,
             const std::vector<std::uint64_t> &rows, std::uint32_t emb,
             std::vector<Block> &out)
{
    const auto n = static_cast<std::uint32_t>(ratio.size());
    for (std::uint32_t i = 0; i < n;) {
        Block b;
        b.ratio = ratio[i];
        b.emb = emb;
        b.begin = i;
        b.isTail = !rows.empty();
        do {
            b.bytes += bytes[i];
            if (b.isTail)
                b.tailRows += rows[i];
        } while (++i < n && ratio[i] > b.ratio);
        b.end = i;
        out.push_back(b);
    }
}

} // namespace

SplitWalker::SplitWalker(const std::vector<EmbShardInput> &inputs,
                         const EmbCostModel &cost_model,
                         std::uint32_t batch)
    : inputs_(inputs), cost_(cost_model), wBytes_(inputs.size()),
      incs_(inputs.size())
{
    // The profiled ICDF covers the (1 - M) share of accesses the
    // profile observed; the Good-Turing missing mass M is carried by
    // the unprofiled tail rows, uniformly. Moving profiled step i or
    // tail rows into HBM each converts its share of traffic from
    // UVM- to HBM-bandwidth service. Each EMB's increments are its
    // own, so large universes cut them on the worker team.
    const auto cut = [&](std::size_t j) {
        const EmbShardInput &in = inputs[j];
        Increments &inc = incs_[j];
        wBytes_[j] = in.coverage * in.avgPool *
            static_cast<double>(in.rowBytes) *
            static_cast<double>(batch);
        const double gain_unit = wBytes_[j] *
            (1.0 / cost_model.uvmBandwidth() -
             1.0 / cost_model.hbmBandwidth());
        const double step_gain =
            gain_unit * (1.0 - in.missingMass) / in.numSteps();
        const double tail_gain_per_row = in.tailRows == 0
            ? 0.0
            : gain_unit * in.missingMass /
                static_cast<double>(in.tailRows);

        std::vector<double> step_ratio, tail_ratio;
        for (unsigned s = 1; s <= in.numSteps(); ++s) {
            const std::uint64_t delta =
                (in.icdfRows[s] - in.icdfRows[s - 1]) * in.rowBytes;
            inc.stepBytes.push_back(delta);
            step_ratio.push_back(gainPerByte(step_gain, delta));
        }
        // The tail is offered in chunks of an eighth so it
        // interleaves with other members fairly.
        const std::uint64_t chunk_rows =
            std::max<std::uint64_t>(1, in.tailRows / 8);
        for (std::uint64_t taken = 0; taken < in.tailRows;) {
            const std::uint64_t chunk =
                std::min(in.tailRows - taken, chunk_rows);
            const std::uint64_t bytes = chunk * in.rowBytes;
            inc.tailRows.push_back(chunk);
            inc.tailBytes.push_back(bytes);
            tail_ratio.push_back(gainPerByte(
                tail_gain_per_row * static_cast<double>(chunk), bytes));
            taken += chunk;
        }
        const auto emb = static_cast<std::uint32_t>(j);
        appendBlocks(step_ratio, inc.stepBytes, {}, emb, inc.blocks);
        appendBlocks(tail_ratio, inc.tailBytes, inc.tailRows, emb,
                     inc.blocks);
        std::sort(inc.blocks.begin(), inc.blocks.end(), walksBefore);
    };
    parallelFor(inputs.size(), cut, kParallelMinEmbs);
}

std::vector<Block>
SplitWalker::walkList(const std::vector<std::uint32_t> &members) const
{
    // Each member's blocks are already in walk order and walksBefore
    // is a strict total order within one list (positions differ
    // across members), so merging the runs pairwise yields exactly
    // the sorted concatenation.
    std::vector<Block> list;
    std::vector<std::size_t> bounds = {0};
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        for (Block b : incs_[members[k]].blocks) {
            b.pos = k;
            list.push_back(b);
        }
        bounds.push_back(list.size());
    }
    std::vector<Block> merged(list.size());
    std::vector<std::size_t> next;
    while (bounds.size() > 2) {
        next.assign(1, 0);
        for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
            const auto lo = static_cast<std::ptrdiff_t>(bounds[r]);
            const auto mid = static_cast<std::ptrdiff_t>(bounds[r + 1]);
            const auto hi = static_cast<std::ptrdiff_t>(
                r + 2 < bounds.size() ? bounds[r + 2] : bounds[r + 1]);
            std::merge(list.begin() + lo, list.begin() + mid,
                       list.begin() + mid, list.begin() + hi,
                       merged.begin() + lo, walksBefore);
            next.push_back(static_cast<std::size_t>(hi));
        }
        list.swap(merged);
        bounds.swap(next);
    }
    return list;
}

double
SplitWalker::embCost(std::uint32_t j, unsigned step,
                     std::uint64_t tail_taken) const
{
    // True HBM access share: the profiled share plus the missing
    // mass carried by the pinned tail.
    const EmbShardInput &in = inputs_[j];
    const double profiled = (1.0 - in.missingMass) *
        static_cast<double>(step) / in.numSteps();
    const double tail = in.tailRows == 0
        ? in.missingMass
        : in.missingMass * static_cast<double>(tail_taken) /
            static_cast<double>(in.tailRows);
    return cost_.twoTierCost(wBytes_[j], profiled + tail);
}

SplitWalker::Priced
SplitWalker::price(Scratch &s, const std::vector<std::uint32_t> &members,
                   const std::vector<Block> &list, std::uint32_t skip,
                   std::uint32_t arrive, std::uint64_t cap_hbm,
                   std::uint64_t cap_uvm) const
{
    const auto n = static_cast<std::uint32_t>(members.size());
    s.slots.clear();
    s.emb.assign(members.begin(), members.end());
    s.emb.push_back(arrive);
    for (std::uint32_t k = 0; k < n; ++k)
        if (k != skip)
            s.slots.push_back(k);
    if (arrive != kNone)
        s.slots.push_back(n);
    s.step.assign(n + 1, 0);
    s.tailTaken.assign(n + 1, 0);
    s.hbmRows.assign(n + 1, 0);
    s.stepDone.assign(n + 1, 0);
    s.tailDone.assign(n + 1, 0);

    std::uint64_t budget = cap_hbm;
    auto take = [&](const Block &b, std::uint32_t slot) {
        std::uint8_t &done =
            b.isTail ? s.tailDone[slot] : s.stepDone[slot];
        if (done)
            return;
        if (b.bytes <= budget) { // whole block, so every prefix, fits
            budget -= b.bytes;
            if (b.isTail)
                s.tailTaken[slot] += b.tailRows;
            else
                s.step[slot] = b.end;
            return;
        }
        const Increments &inc = incs_[b.emb];
        for (std::uint32_t i = b.begin; i < b.end; ++i) {
            const std::uint64_t bytes =
                b.isTail ? inc.tailBytes[i] : inc.stepBytes[i];
            if (bytes > budget) {
                done = 1; // an increment that does not fit ends
                return;   // its sequence
            }
            budget -= bytes;
            if (b.isTail)
                s.tailTaken[slot] += inc.tailRows[i];
            else
                s.step[slot] = i + 1;
        }
    };
    const std::vector<Block> *arriving =
        arrive == kNone ? nullptr : &incs_[arrive].blocks;
    std::size_t next = 0;
    for (const Block &b : list) {
        // The arriving EMB sits last, so it goes first only on a
        // strictly greater ratio.
        for (; arriving && next < arriving->size() &&
             (*arriving)[next].ratio > b.ratio;
             ++next)
            take((*arriving)[next], n);
        if (b.pos != skip)
            take(b, b.pos);
    }
    for (; arriving && next < arriving->size(); ++next)
        take((*arriving)[next], n);

    std::uint64_t uvm_bytes = 0;
    for (const std::uint32_t slot : s.slots) {
        const EmbShardInput &in = inputs_[s.emb[slot]];
        s.hbmRows[slot] = in.icdfRows[s.step[slot]] + s.tailTaken[slot];
        uvm_bytes += in.tableBytes - s.hbmRows[slot] * in.rowBytes;
    }

    // Forced spill: if the UVM budget still overflows, move
    // whatever rows remain into leftover HBM, largest tails first.
    if (uvm_bytes > cap_uvm) {
        std::uint64_t need = uvm_bytes - cap_uvm;
        s.spill = s.slots;
        std::sort(s.spill.begin(), s.spill.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const auto ta =
                          inputs_[s.emb[a]].hashSize - s.hbmRows[a];
                      const auto tb =
                          inputs_[s.emb[b]].hashSize - s.hbmRows[b];
                      if (ta != tb)
                          return ta > tb;
                      return a < b;
                  });
        for (const std::uint32_t slot : s.spill) {
            if (need == 0)
                break;
            const EmbShardInput &in = inputs_[s.emb[slot]];
            const std::uint64_t movable_rows =
                std::min(in.hashSize - s.hbmRows[slot],
                         budget / in.rowBytes);
            const std::uint64_t moved = std::min(
                movable_rows, (need + in.rowBytes - 1) / in.rowBytes);
            s.hbmRows[slot] += moved;
            s.tailTaken[slot] +=
                std::min(moved, in.tailRows - s.tailTaken[slot]);
            budget -= moved * in.rowBytes;
            need -= std::min(need, moved * in.rowBytes);
        }
        if (need > 0)
            return {}; // infeasible: both tiers exhausted
    }

    Priced out;
    out.feasible = true;
    for (const std::uint32_t slot : s.slots)
        out.cost += embCost(s.emb[slot], s.step[slot], s.tailTaken[slot]);
    return out;
}

GpuBudgetSplit
SplitWalker::split(const std::vector<std::uint32_t> &members,
                   const std::vector<Block> &list, std::uint64_t cap_hbm,
                   std::uint64_t cap_uvm)
{
    const Priced p = price(members, list, kNone, kNone, cap_hbm,
                           cap_uvm);
    GpuBudgetSplit out;
    out.feasible = p.feasible;
    out.cost = p.cost;
    for (const std::uint32_t slot : scratch_.slots) {
        out.step.push_back(scratch_.step[slot]);
        out.hbmRows.push_back(scratch_.hbmRows[slot]);
        out.tailTaken.push_back(scratch_.tailTaken[slot]);
    }
    return out;
}

} // namespace recshard
