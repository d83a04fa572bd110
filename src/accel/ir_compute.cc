#include "accel/ir_compute.hh"

#include <algorithm>

#include "realign/limits.hh"
#include "realign/score.hh"
#include "realign/whd_simd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Per-call pointer/length scratch.  irCompute is the hot loop of
 * the scheduler's precompute pass and the hardened fallback path;
 * thread_local reuse removes the five vector allocations per call.
 */
struct IrComputeScratch
{
    std::vector<const uint8_t *> consPtr;
    std::vector<uint32_t> consLen;
    std::vector<const uint8_t *> readPtr;
    std::vector<const uint8_t *> qualPtr;
    std::vector<uint32_t> readLen;
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

    // Resolve consensus rows (dense layout, ir_set_len lengths).
    scratch.consPtr.resize(num_cons);
    scratch.consLen.resize(num_cons);
    {
        size_t off = 0;
        for (uint32_t i = 0; i < num_cons; ++i) {
            scratch.consPtr[i] = target.consensusData.data() + off;
            scratch.consLen[i] = target.consensusLengths[i];
            off += scratch.consLen[i];
        }
        panic_if(off != target.consensusData.size(),
                 "consensus buffer image size mismatch");
    }

    // Resolve read slots; the end-of-read sentinel (0x00) or the
    // slot boundary delimits each read.
    scratch.readPtr.resize(num_reads);
    scratch.qualPtr.resize(num_reads);
    scratch.readLen.resize(num_reads);
    for (uint32_t j = 0; j < num_reads; ++j) {
        size_t off = static_cast<size_t>(j) * kMaxReadLen;
        scratch.readPtr[j] = target.readData.data() + off;
        scratch.qualPtr[j] = target.qualData.data() + off;
        uint32_t len = 0;
        while (len < kMaxReadLen && scratch.readPtr[j][len] != 0)
            ++len;
        panic_if(len == 0, "empty read slot %u", j);
        scratch.readLen[j] = len;
    }

    const SimdKernel kernel = activeSimdKernel();

    IrComputeResult result;
    MinWhdGrid grid(num_cons, num_reads);

    // --- Stage 1: Hamming Distance Calculator ---------------------
    // The per-pair offset sweep runs through the shared dispatch
    // kernel with pruneChunk = width: the running-minimum register
    // is checked once per width-base chunk, exactly the datapath's
    // per-cycle check.  Cycle accounting is derived from the sweep:
    // one setup cycle per offset started (pruned offsets start
    // too), one cycle per block-RAM row compare actually executed
    // (== the sweep's chunk count), and two cycles per feasible
    // pair to hand the minimum to the selector.
    for (uint32_t i = 0; i < num_cons; ++i) {
        const uint8_t *cons = scratch.consPtr[i];
        const uint32_t m = scratch.consLen[i];
        for (uint32_t j = 0; j < num_reads; ++j) {
            const uint32_t n = scratch.readLen[j];
            if (n > m)
                continue; // read cannot slide on this consensus

            const WhdSweepResult r =
                whdSweep(cons, m, scratch.readPtr[j],
                         scratch.qualPtr[j], n, prune,
                         /*pruneChunk=*/width, kernel);
            grid.set(i, j, r.best, r.bestK);

            const uint64_t offsets = m - n + 1;
            result.whd.offsetsEvaluated += offsets;
            result.whd.comparisonsUnpruned +=
                offsets * static_cast<uint64_t>(n);
            result.whd.comparisons += r.comparisons;
            result.whd.offsetsPruned += r.offsetsPruned;
            result.hdcCycles += offsets; // offset setup cycles
            result.hdcCycles += r.chunks; // row compares executed
            result.hdcCycles += 2; // hand min to the selector
        }
    }

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
