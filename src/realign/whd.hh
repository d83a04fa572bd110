/**
 * @file
 * Weighted-Hamming-distance kernel -- paper Algorithm 1.
 *
 * For every (consensus i, read j) pair, the read slides along the
 * consensus over offsets k in [0, m - n] (m = consensus length,
 * n = read length).  At each offset the weighted Hamming distance is
 * the sum of the read's quality scores at mismatching bases.  The
 * minimum over all offsets, and the offset at which it first
 * occurred, are recorded in an (i, j) grid.
 *
 * Computation pruning (paper Section III-A) optionally abandons an
 * offset as soon as its running sum reaches the current minimum;
 * this is results-identical (verified by property tests) and
 * eliminates >50 % of base comparisons on realistic inputs.
 *
 * The per-pair offset sweep itself runs through the runtime-dispatch
 * layer in realign/whd_simd.hh (scalar reference, portable generic
 * lanes, AVX2) -- every implementation produces bit-identical grids
 * and WhdStats.
 *
 * sweepTarget() is the one loop over a target's pairs, shared by
 * the software kernel (minWhd) and the datapath model (irCompute).
 * Each alternative consensus is the reference window (consensus 0)
 * with one indel applied, so a pruned sweep of consensus i repeats
 * consensus 0's wherever their bytes agree: it resumes from
 * consensus 0's state and sweeps only the offsets whose window
 * touches its indel (whd_simd.cc note 5).  At the datapath's width
 * of 32 every sweep replays per-chunk sums, and consensus i sums
 * only the chunks that touch its indel.  The shared bytes are
 * found by comparison, so grids and counters are those of the
 * per-pair loop, bit for bit, for any consensus set.
 */

#ifndef IRACC_REALIGN_WHD_HH
#define IRACC_REALIGN_WHD_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "realign/consensus.hh"
#include "realign/whd_simd.hh"

namespace iracc {

/** Sentinel for an uncomputed / infeasible grid entry. */
constexpr uint32_t kWhdInfinity =
    std::numeric_limits<uint32_t>::max();

/**
 * Largest representable weighted distance of a *placed* read.
 * Quality accumulation saturates here so that a legitimately
 * placeable read with an extreme weighted distance can never alias
 * the kWhdInfinity "never placed" sentinel and silently lose its
 * placement (both the software kernel and the accelerator's
 * datapath model saturate identically).
 */
constexpr uint32_t kWhdMax = kWhdInfinity - 1;

/** Saturating quality accumulation (see kWhdMax). */
inline uint32_t
whdAccumulate(uint32_t whd, uint8_t qual)
{
    uint64_t sum = static_cast<uint64_t>(whd) + qual;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Work counters for the kernel (drive the ablation benches).
 *
 * Counter semantics are shared bit-for-bit between the software
 * kernel and the accelerator datapath model at scalar width: a
 * comparison counts when it executes, including the base (or
 * block-RAM row) whose running sum triggers a pruning abort, and
 * never beyond -- `comparisons <= comparisonsUnpruned` is an
 * invariant (asserted by whd_test and perf_monitor_test).
 */
struct WhdStats
{
    /** Base comparisons actually executed. */
    uint64_t comparisons = 0;

    /** Base comparisons a non-pruning implementation would do. */
    uint64_t comparisonsUnpruned = 0;

    /** (i, j, k) offset evaluations started. */
    uint64_t offsetsEvaluated = 0;

    /** Offsets abandoned early by pruning. */
    uint64_t offsetsPruned = 0;

    /**
     * Offsets the host actually swept: offsetsEvaluated minus those
     * a consensus took over from consensus 0's sweep
     * (sweepTarget).  A re-swept shared suffix counts as swept,
     * also at width 32, where it replays consensus 0's chunk sums
     * and sums nothing itself.  Host work, not modeled work -- the
     * counters above and the datapath's cycles count every
     * evaluated offset.  A function of the target and `prune`
     * alone, so identical under every kernel and prune
     * granularity.
     */
    uint64_t offsetsSwept = 0;

    void
    merge(const WhdStats &o)
    {
        comparisons += o.comparisons;
        comparisonsUnpruned += o.comparisonsUnpruned;
        offsetsEvaluated += o.offsetsEvaluated;
        offsetsPruned += o.offsetsPruned;
        offsetsSwept += o.offsetsSwept;
    }

    /** Fraction of comparisons eliminated by pruning. */
    double
    prunedFraction() const
    {
        if (comparisonsUnpruned == 0)
            return 0.0;
        return 1.0 - static_cast<double>(comparisons) /
                     static_cast<double>(comparisonsUnpruned);
    }
};

/**
 * The (consensus x read) minimum-WHD grid produced by Algorithm 1
 * and consumed by Algorithm 2.
 */
class MinWhdGrid
{
  public:
    MinWhdGrid(size_t num_cons, size_t num_reads);

    /**
     * Re-shape and re-initialize (all entries back to kWhdInfinity)
     * without giving up the backing allocation -- lets hot loops
     * (work-amplification reruns, per-target scratch) reuse one
     * grid.
     */
    void reset(size_t num_cons, size_t num_reads);

    uint32_t whd(size_t i, size_t j) const { return vals[at(i, j)]; }
    uint32_t idx(size_t i, size_t j) const { return idxs[at(i, j)]; }

    void
    set(size_t i, size_t j, uint32_t whd, uint32_t k)
    {
        vals[at(i, j)] = whd;
        idxs[at(i, j)] = k;
    }

    size_t numConsensuses() const { return cons; }
    size_t numReads() const { return reads; }

    bool operator==(const MinWhdGrid &o) const;

  private:
    size_t
    at(size_t i, size_t j) const
    {
        return i * reads + j;
    }

    size_t cons;
    size_t reads;
    std::vector<uint32_t> vals;
    std::vector<uint32_t> idxs;
};

/**
 * Algorithm 1 part 1.1: weighted Hamming distance of @p read
 * against @p cons starting at offset @p k.  The read must fit:
 * k + read.size() <= cons.size().
 */
uint32_t calcWhd(const BaseSeq &cons, const BaseSeq &read,
                 const QualSeq &quals, size_t k);

/**
 * One target as sweepTarget() reads it: consensus rows and read
 * slots as plain pointers and lengths, filled by the caller.  The
 * sweep keeps its own tables here too, so a WhdTarget reused across
 * targets (thread_local in both callers) makes it allocation-free.
 */
struct WhdTarget
{
    std::vector<const uint8_t *> cons;
    std::vector<uint32_t> consLen;
    std::vector<const uint8_t *> read;
    std::vector<const uint8_t *> qual;
    std::vector<uint32_t> readLen;

    /** Bytes consensus i shares with consensus 0 at its start. */
    std::vector<uint32_t> prefix;
    /** Bytes consensus i shares with consensus 0 at its end. */
    std::vector<uint32_t> suffix;
    /** Offsets where consensus 0's sweep of one read is cut. */
    std::vector<size_t> cuts;
    /** Consensus 0's sweep state at each cut. */
    std::vector<WhdSweepResult> states;
    /**
     * Width-32 chunk rows of one read: consensus 0's over every
     * offset, and another consensus's over the windows it sweeps.
     * ceil(n / 32) rows of (largest offset count + kWhdLanes) u16.
     */
    std::vector<uint16_t> rows;
    std::vector<uint16_t> windowRows;

    /** Point the rows at @p input's consensuses and reads. */
    void load(const IrTargetInput &input);
};

/** Datapath work of one sweepTarget() call. */
struct WhdTargetSweep
{
    /** pruneChunk-base chunks executed (block-RAM row compares). */
    uint64_t chunks = 0;

    /** Feasible (consensus, read) pairs: read fits the consensus. */
    uint64_t pairs = 0;
};

/**
 * Algorithm 1 over one target: fill @p grid (reset to the target's
 * shape) and add the work to @p stats.  Equal, grid and counters,
 * to a loop of whole-pair whdSweep() calls over every feasible
 * pair; a pruned sweep of consensus i > 0 reuses consensus 0's
 * sweep of the same read wherever their bytes agree (whd_simd.cc
 * note 5).  At pruneChunk == kWhdPruneBlock a pruned sweep sums
 * consensus 0's chunk rows once per read and replays every
 * consensus from rows (WhdRowKernels); consensus i sums only the
 * chunks of its windows that touch its indel.  Unpruned sweeps,
 * reads longer than consensus 0, and reads the rows cannot hold
 * (n == 0, n > kMaxReadLen) run whdSweep pair by pair.
 *
 * @param target     rows to sweep; its tables are scratch
 * @param prune      enable computation pruning
 * @param pruneChunk running-minimum check granularity (whdSweep)
 * @param kernel     dispatch implementation
 */
WhdTargetSweep sweepTarget(WhdTarget &target, bool prune,
                           uint32_t pruneChunk, SimdKernel kernel,
                           MinWhdGrid &grid, WhdStats &stats);

/**
 * Algorithm 1: fill the min-WHD grid for a target.
 *
 * @param input   assembled target input
 * @param prune   enable computation pruning
 * @param stats   optional work counters (may be null)
 */
MinWhdGrid minWhd(const IrTargetInput &input, bool prune,
                  WhdStats *stats = nullptr);

/**
 * Allocation-free variant of minWhd(): fills @p grid (reset to the
 * target's shape) instead of returning a fresh one.  Runs through
 * the active dispatch kernel (realign/whd_simd.hh) like minWhd.
 */
void minWhdInto(const IrTargetInput &input, bool prune,
                WhdStats *stats, MinWhdGrid &grid);

} // namespace iracc

#endif // IRACC_REALIGN_WHD_HH
