#include "recshard/sharding/split_walk.hh"

#include <algorithm>

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

void
appendBlocks(const std::vector<double> &ratio, bool is_tail,
             std::uint32_t emb, std::vector<Block> &out)
{
    const auto n = static_cast<std::uint32_t>(ratio.size());
    for (std::uint32_t i = 0; i < n;) {
        Block b;
        b.ratio = ratio[i];
        b.emb = emb;
        b.begin = i;
        b.isTail = is_tail;
        for (++i; i < n && ratio[i] > b.ratio; ++i) {
        }
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
    // UVM- to HBM-bandwidth service.
    std::vector<double> step_ratio, tail_ratio;
    for (std::uint32_t j = 0; j < inputs.size(); ++j) {
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

        step_ratio.clear();
        for (unsigned s = 1; s <= in.numSteps(); ++s) {
            const std::uint64_t delta =
                (in.icdfRows[s] - in.icdfRows[s - 1]) * in.rowBytes;
            inc.stepBytes.push_back(delta);
            step_ratio.push_back(gainPerByte(step_gain, delta));
        }
        // The tail is offered in chunks of an eighth so it
        // interleaves with other members fairly.
        tail_ratio.clear();
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
        appendBlocks(step_ratio, false, j, inc.blocks);
        appendBlocks(tail_ratio, true, j, inc.blocks);
        std::sort(inc.blocks.begin(), inc.blocks.end(), walksBefore);
    }
}

std::vector<Block>
SplitWalker::walkList(const std::vector<std::uint32_t> &members) const
{
    std::vector<Block> list;
    for (std::uint32_t k = 0; k < members.size(); ++k) {
        for (Block b : incs_[members[k]].blocks) {
            b.pos = k;
            list.push_back(b);
        }
    }
    std::sort(list.begin(), list.end(), walksBefore);
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
SplitWalker::price(const std::vector<std::uint32_t> &members,
                   const std::vector<Block> &list, std::uint32_t skip,
                   std::uint32_t arrive, std::uint64_t cap_hbm,
                   std::uint64_t cap_uvm)
{
    const auto n = static_cast<std::uint32_t>(members.size());
    slots_.clear();
    emb_.assign(members.begin(), members.end());
    emb_.push_back(arrive);
    for (std::uint32_t k = 0; k < n; ++k)
        if (k != skip)
            slots_.push_back(k);
    if (arrive != kNone)
        slots_.push_back(n);
    step_.assign(n + 1, 0);
    tailTaken_.assign(n + 1, 0);
    hbmRows_.assign(n + 1, 0);
    stepDone_.assign(n + 1, 0);
    tailDone_.assign(n + 1, 0);

    std::uint64_t budget = cap_hbm;
    auto take = [&](const Block &b, std::uint32_t slot) {
        std::uint8_t &done =
            b.isTail ? tailDone_[slot] : stepDone_[slot];
        if (done)
            return;
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
                tailTaken_[slot] += inc.tailRows[i];
            else
                step_[slot] = i + 1;
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
    for (const std::uint32_t slot : slots_) {
        const EmbShardInput &in = inputs_[emb_[slot]];
        hbmRows_[slot] = in.icdfRows[step_[slot]] + tailTaken_[slot];
        uvm_bytes += in.tableBytes - hbmRows_[slot] * in.rowBytes;
    }

    // Forced spill: if the UVM budget still overflows, move
    // whatever rows remain into leftover HBM, largest tails first.
    if (uvm_bytes > cap_uvm) {
        std::uint64_t need = uvm_bytes - cap_uvm;
        spill_ = slots_;
        std::sort(spill_.begin(), spill_.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      const auto ta =
                          inputs_[emb_[a]].hashSize - hbmRows_[a];
                      const auto tb =
                          inputs_[emb_[b]].hashSize - hbmRows_[b];
                      if (ta != tb)
                          return ta > tb;
                      return a < b;
                  });
        for (const std::uint32_t slot : spill_) {
            if (need == 0)
                break;
            const EmbShardInput &in = inputs_[emb_[slot]];
            const std::uint64_t movable_rows =
                std::min(in.hashSize - hbmRows_[slot],
                         budget / in.rowBytes);
            const std::uint64_t moved = std::min(
                movable_rows, (need + in.rowBytes - 1) / in.rowBytes);
            hbmRows_[slot] += moved;
            tailTaken_[slot] +=
                std::min(moved, in.tailRows - tailTaken_[slot]);
            budget -= moved * in.rowBytes;
            need -= std::min(need, moved * in.rowBytes);
        }
        if (need > 0)
            return {}; // infeasible: both tiers exhausted
    }

    Priced out;
    out.feasible = true;
    for (const std::uint32_t slot : slots_)
        out.cost += embCost(emb_[slot], step_[slot], tailTaken_[slot]);
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
    for (const std::uint32_t slot : slots_) {
        out.step.push_back(step_[slot]);
        out.hbmRows.push_back(hbmRows_[slot]);
        out.tailTaken.push_back(tailTaken_[slot]);
    }
    return out;
}

} // namespace recshard
