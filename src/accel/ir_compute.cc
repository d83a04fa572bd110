#include "accel/ir_compute.hh"

#include "realign/limits.hh"
#include "realign/score.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Per-call scratch.  irCompute is the hot loop of the scheduler's
 * precompute pass and the hardened fallback path; thread_local
 * reuse of the rows, the sweep's tables and the grid removes every
 * per-target allocation.
 */
struct IrComputeScratch
{
    WhdTarget rows;
    MinWhdGrid grid{0, 0};
};

} // anonymous namespace

IrComputeResult
irCompute(const MarshalledTarget &target, uint32_t width, bool prune)
{
    panic_if(width == 0, "data-parallel width must be >= 1");
    const uint32_t num_cons = target.numConsensuses;
    const uint32_t num_reads = target.numReads;
    panic_if(num_cons == 0 || num_cons > kMaxConsensuses,
             "bad consensus count %u", num_cons);
    panic_if(num_reads > kMaxReads, "bad read count %u", num_reads);

    thread_local IrComputeScratch scratch;
    WhdTarget &rows = scratch.rows;

    // Resolve consensus rows (dense layout, ir_set_len lengths).
    rows.cons.resize(num_cons);
    rows.consLen.resize(num_cons);
    {
        size_t off = 0;
        for (uint32_t i = 0; i < num_cons; ++i) {
            rows.cons[i] = target.consensusData.data() + off;
            rows.consLen[i] = target.consensusLengths[i];
            off += rows.consLen[i];
        }
        panic_if(off != target.consensusData.size(),
                 "consensus buffer image size mismatch");
    }

    // Resolve read slots; the end-of-read sentinel (0x00) or the
    // slot boundary delimits each read.
    rows.read.resize(num_reads);
    rows.qual.resize(num_reads);
    rows.readLen.resize(num_reads);
    for (uint32_t j = 0; j < num_reads; ++j) {
        size_t off = static_cast<size_t>(j) * kMaxReadLen;
        rows.read[j] = target.readData.data() + off;
        rows.qual[j] = target.qualData.data() + off;
        uint32_t len = 0;
        while (len < kMaxReadLen && rows.read[j][len] != 0)
            ++len;
        panic_if(len == 0, "empty read slot %u", j);
        rows.readLen[j] = len;
    }

    IrComputeResult result;
    MinWhdGrid &grid = scratch.grid;

    // --- Stage 1: Hamming Distance Calculator ---------------------
    // The target sweep runs with pruneChunk = width: the running-
    // minimum register is checked once per width-base chunk,
    // exactly the datapath's per-cycle check.  Cycle accounting is
    // derived from the sweep: one setup cycle per offset started
    // (pruned offsets start too), one cycle per block-RAM row
    // compare executed (== the sweep's chunk count), and two cycles
    // per feasible pair to hand the minimum to the selector.  The
    // host's sharing of consensus 0's sweep changes none of them.
    const WhdTargetSweep swept = sweepTarget(
        rows, prune, /*pruneChunk=*/width, activeSimdKernel(), grid,
        result.whd);
    result.hdcCycles =
        result.whd.offsetsEvaluated + swept.chunks + 2 * swept.pairs;

    // --- Stage 2: Consensus Selector ------------------------------
    ConsensusDecision decision = scoreAndSelect(grid);
    result.bestConsensus = decision.bestConsensus;
    // Single-ported dist/pos buffers: one read per cycle while
    // scoring each non-reference consensus, then a final pass to
    // emit the realignment decisions.
    if (num_cons > 1) {
        result.selectorCycles +=
            static_cast<Cycle>(num_cons - 1) * num_reads;
        result.selectorCycles += 4 * (num_cons - 1); // score update
    }
    result.selectorCycles += num_reads; // realignment output pass

    // --- Architectural outputs ------------------------------------
    result.output.realignFlags = decision.realign;
    result.output.newPositions.assign(num_reads, 0);
    for (uint32_t j = 0; j < num_reads; ++j) {
        if (decision.realign[j]) {
            result.output.newPositions[j] =
                decision.newOffset[j] + target.targetStart;
        }
    }
    return result;
}

} // namespace iracc
