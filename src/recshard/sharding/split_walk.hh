/**
 * @file
 * The greedy per-GPU split shared by the RecShard solver and the
 * lp-rounding planner: how much of each member EMB's hot rows one
 * GPU's HBM budget pins.
 *
 * Each EMB offers a sequence of profiled ICDF step increments and a
 * sequence of unprofiled tail chunks; increments compete on cost
 * gain per HBM byte (optimal for concave CDFs), an increment that
 * does not fit ends its sequence, and a forced spill follows when
 * UVM would overflow. The increments are computed once per walker
 * and cut into blocks (see SplitWalker::Block) whose sorted order is
 * the greedy's order, so one split is a linear walk over a GPU's
 * sorted block list. A block carries its byte and tail-row totals,
 * so the walk takes a block that fits whole in O(1). The walk also
 * prices a neighbouring member set — one member removed, one EMB
 * appended — without re-sorting, which is what makes the solver's
 * local search cheap.
 *
 * A walk writes its per-member state to a SplitWalker::Scratch.
 * The walker's own one serves split() and the scratch-less price();
 * threads that price concurrently pass one Scratch each to the
 * const price(), which reads the walker and writes nothing else.
 */

#ifndef RECSHARD_SHARDING_SPLIT_WALK_HH
#define RECSHARD_SHARDING_SPLIT_WALK_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "recshard/sharding/shard_inputs.hh"

namespace recshard {

/** Split decision for a set of EMBs sharing one HBM/UVM budget. */
struct GpuBudgetSplit
{
    bool feasible = false;
    double cost = 0.0;  //!< summed coverage-weighted member costs
    std::vector<std::uint64_t> hbmRows; //!< parallel to members
    std::vector<unsigned> step;         //!< chosen ICDF step
    std::vector<std::uint64_t> tailTaken;
};

/**
 * Prices member sets of one EMB universe. Holds references to
 * `inputs` and the cost model, which must outlive the walker.
 */
class SplitWalker
{
  public:
    /**
     * A run of one member's step or tail increments that the greedy
     * takes back to back: it starts at one increment and absorbs the
     * following ones while their gain per byte is strictly greater
     * than the first's. Once the greedy takes a block's first
     * increment, every other member's next increment is worth at
     * most that much, so the rest of the block follows at once.
     * Sorting blocks by (ratio descending, member position, step
     * before tail) therefore reproduces the order of a max-heap
     * offering each member's next increment, even where integer
     * ICDF deltas make a sequence non-monotone.
     */
    struct Block
    {
        double ratio = 0.0;      //!< gain per byte of first increment
        /**
         * HBM bytes of all the block's increments. If they fit the
         * remaining budget, so does every prefix, and the walk takes
         * the block in one step.
         */
        std::uint64_t bytes = 0;
        std::uint64_t tailRows = 0; //!< rows of a tail block; 0 for steps
        std::uint32_t emb = 0;
        std::uint32_t pos = 0;   //!< member position in a walk list
        std::uint32_t begin = 0; //!< increments [begin, end) of the
        std::uint32_t end = 0;   //!< member's step or tail sequence
        bool isTail = false;
    };

    /** Feasibility and cost of one priced member set. */
    struct Priced
    {
        bool feasible = false;
        double cost = 0.0;
    };

    /**
     * Per-member state of one walk: slot k < members.size() is
     * member k, slot members.size() the arriving EMB. Holds no
     * result between calls; reusing one only saves allocations.
     */
    struct Scratch
    {
        std::vector<std::uint32_t> slots; //!< candidate member order
        std::vector<std::uint32_t> emb;
        std::vector<unsigned> step;
        std::vector<std::uint64_t> tailTaken;
        std::vector<std::uint64_t> hbmRows;
        std::vector<std::uint8_t> stepDone; //!< sequence ended
        std::vector<std::uint8_t> tailDone;
        std::vector<std::uint32_t> spill;
    };

    /** "No member" for price()'s skip and arrive arguments. */
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();

    /** Cuts each EMB's increments into blocks, one item per EMB, on
     *  the parallelFor team from kParallelMinEmbs EMBs. */
    SplitWalker(const std::vector<EmbShardInput> &inputs,
                const EmbCostModel &cost_model, std::uint32_t batch);

    /**
     * The members' blocks in walk order: each member's run, cut once
     * per walker, merged pairwise in O(B log members) for B blocks.
     */
    [[nodiscard]] std::vector<Block>
    walkList(const std::vector<std::uint32_t> &members) const;

    /**
     * Price `members` (walk list `list`) with the member at position
     * `skip` removed and EMB `arrive` appended as the last member;
     * kNone for neither. Costs sum in the candidate's member order.
     * Walks in `scratch`, so concurrent calls that each own one
     * Scratch are safe.
     */
    Priced price(Scratch &scratch,
                 const std::vector<std::uint32_t> &members,
                 const std::vector<Block> &list, std::uint32_t skip,
                 std::uint32_t arrive, std::uint64_t cap_hbm,
                 std::uint64_t cap_uvm) const;

    /** price() in the walker's own scratch. */
    Priced price(const std::vector<std::uint32_t> &members,
                 const std::vector<Block> &list, std::uint32_t skip,
                 std::uint32_t arrive, std::uint64_t cap_hbm,
                 std::uint64_t cap_uvm)
    {
        return price(scratch_, members, list, skip, arrive, cap_hbm,
                     cap_uvm);
    }

    /** Full split of `members` (walk list `list`). */
    GpuBudgetSplit split(const std::vector<std::uint32_t> &members,
                         const std::vector<Block> &list,
                         std::uint64_t cap_hbm, std::uint64_t cap_uvm);

    /**
     * Coverage-weighted cost of EMB `j` split at ICDF `step` with
     * `tail_taken` unprofiled tail rows pinned.
     */
    [[nodiscard]] double embCost(std::uint32_t j, unsigned step,
                                 std::uint64_t tail_taken) const;

  private:
    /** One EMB's increments, cut into blocks. */
    struct Increments
    {
        std::vector<std::uint64_t> stepBytes; //!< step i -> i+1
        std::vector<std::uint64_t> tailRows;  //!< rows per chunk
        std::vector<std::uint64_t> tailBytes;
        std::vector<Block> blocks; //!< walk order of this EMB alone
    };

    const std::vector<EmbShardInput> &inputs_;
    const EmbCostModel &cost_;
    std::vector<double> wBytes_; //!< coverage*pool*rowBytes*batch
    std::vector<Increments> incs_;
    Scratch scratch_; //!< split() and the scratch-less price()
};

} // namespace recshard

#endif // RECSHARD_SHARDING_SPLIT_WALK_HH
