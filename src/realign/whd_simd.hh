/**
 * @file
 * Vectorized implementations of the WHD offset sweep behind a
 * runtime-dispatch layer.
 *
 * The weighted-Hamming-distance inner loop (paper Algorithm 1) is
 * the dominant cost of both the software oracle and the
 * accelerator's datapath model, so it exists in three
 * interchangeable implementations:
 *
 *   scalar   the reference loop: one base comparison at a time,
 *            running-minimum check per comparison (software) or per
 *            chunk (hardware model).
 *   generic  portable fixed-width lanes written so any optimizing
 *            compiler can auto-vectorize: the unpruned sweep, the
 *            pruned sweep at every datapath width and the width-32
 *            row kernels run kWhdLanes offsets at once (for base n
 *            the consensus bytes needed across offset lanes are
 *            contiguous).
 *   avx2     the same shapes hand-written with AVX2 intrinsics
 *            (compiled via function target attributes, selected at
 *            runtime only when CPUID reports AVX2).
 *
 * Every implementation is bit-equal to scalar: identical min-WHD
 * grids and offsets, identical WhdStats work counters, identical
 * datapath chunk counts.  The unpruned sweep derives its counters
 * in closed form.  The pruned sweep counts each offset lane's
 * comparisons while its running sum is below the minimum (quality
 * accumulation is monotone, so the abort is the comparison after
 * the last one counted) and derives the chunk of that abort at any
 * datapath width.  The differential harness (src/testing) and
 * tests/whd_test.cc referee the equality.
 *
 * The width-32 target sweep (sweepTarget, realign/whd.hh) has two
 * primitives of its own in every implementation: a chunk row (one
 * 32-base chunk's sums over a range of offsets) and a replay of the
 * pruned sweep from such rows (WhdRowKernels).
 *
 * Dispatch: the sweep runs whichever SimdKernel the caller passes;
 * callers pass the process-wide activeSimdKernel() (util/
 * simd_kernel.hh), which IRACC_KERNEL selects.
 */

#ifndef IRACC_REALIGN_WHD_SIMD_HH
#define IRACC_REALIGN_WHD_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "util/simd_kernel.hh"

namespace iracc {

/**
 * Consecutive offsets per block of the lane sweeps: the generic
 * unpruned sweep and both kernels' pruned sweeps (one __m256i of
 * u16 lanes on AVX2).
 */
constexpr size_t kWhdLanes = 16;

/**
 * Chunk width at which the target sweep replays chunk rows
 * (WhdRowKernels): one 32-byte vector per chunk on AVX2.
 */
constexpr size_t kWhdPruneBlock = 32;

/**
 * Result of sweeping every offset of one (consensus, read) pair.
 *
 * `comparisons` and `offsetsPruned` follow the scalar counter
 * semantics exactly (see realign/whd.hh): a comparison counts when
 * the scalar loop would have executed it, including the one whose
 * running sum triggers a pruning abort.  `chunks` counts the
 * pruneChunk-base blocks the hardware datapath would execute (one
 * block-RAM row compare each); it equals `comparisons` when
 * pruneChunk == 1.
 */
struct WhdSweepResult
{
    uint32_t best = 0xFFFFFFFFu; // kWhdInfinity
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t offsetsPruned = 0;
    uint64_t chunks = 0;
};

/** Default end of whdSweep's offset range: past the last offset. */
constexpr size_t kWhdSweepEnd = ~static_cast<size_t>(0);

/**
 * Sweep offsets k in [kBegin, kEnd) of one (consensus, read) pair
 * with the requested kernel implementation, continuing from the
 * state @p from.  The defaults sweep every offset [0, m - n] from
 * the empty state: no minimum yet, zero counters.
 *
 * @param cons       consensus bytes (ASCII bases), length @p m
 * @param m          consensus length; requires n <= m
 * @param read       read bytes, length @p n
 * @param qual       quality bytes, parallel to @p read
 * @param n          read length
 * @param prune      enable computation pruning
 * @param pruneChunk granularity of the running-minimum check:
 *                   1 = per comparison (the software kernel),
 *                   w = per w-base chunk (the hardware datapath at
 *                   data-parallel width w)
 * @param kernel     implementation to run
 * @param kBegin     first offset to sweep
 * @param kEnd       one past the last offset; kWhdSweepEnd = m - n + 1
 * @param from       state after offsets [0, kBegin): the running
 *                   minimum and its offset (kWhdInfinity = none
 *                   yet) and the counters so far
 *
 * A pruned sweep's state after offset k depends only on the
 * windows at offsets <= k, so sweeping [0, k) and then [k, end)
 * from the returned state equals one sweep of [0, end)
 * (whd_simd.cc note 5).  Results (best/bestK and all counters) are
 * bit-equal across every kernel for any (prune, pruneChunk, range).
 */
WhdSweepResult whdSweep(const uint8_t *cons, size_t m,
                        const uint8_t *read, const uint8_t *qual,
                        size_t n, bool prune, uint32_t pruneChunk,
                        SimdKernel kernel, size_t kBegin = 0,
                        size_t kEnd = kWhdSweepEnd,
                        const WhdSweepResult &from = WhdSweepResult());

/**
 * The two row kernels of the width-32 target sweep (whd_simd.cc
 * note 5), resolved once per target: sweepTarget calls them many
 * times per read, each over a few dozen offsets.
 */
struct WhdRowKernels
{
    /**
     * One chunk row: row[k], for k in [0, count), is the
     * mismatch-quality sum of the @p len bytes cons[k..k+len)
     * against read[0..len), 1 <= len <= kWhdPruneBlock.  Bytes
     * cons[0, count - 1 + len) are read.
     */
    void (*chunkRow)(const uint8_t *cons, const uint8_t *read,
                     const uint8_t *qual, size_t len, size_t count,
                     uint16_t *row);

    /**
     * Sweep offsets [0, count) of one pair at pruneChunk
     * kWhdPruneBlock from chunk rows, starting from minimum
     * @p startBest with zero counters: row c of offset k is
     * rows[c * stride + k], for the ceil(n / 32) chunks of a read
     * of length n, 1 <= n <= kMaxReadLen.  Each row must be readable
     * for kWhdLanes - 1 entries past count; those lanes are masked
     * out.  Bit-equal to whdSweep() over the windows the rows were
     * summed from (continue a state with whdContinue()).
     */
    WhdSweepResult (*replayRows)(const uint16_t *rows, size_t stride,
                                 size_t n, size_t count,
                                 uint32_t startBest);
};

/** @p kernel's row kernels (generic where AVX2 is not supported). */
WhdRowKernels whdRowKernels(SimdKernel kernel);

/**
 * @p from advanced by @p r, a sweep of the offsets from @p kBegin on
 * that started at from's minimum with zero counters and numbers its
 * offsets from 0 (whd_simd.cc note 5).
 */
inline WhdSweepResult
whdContinue(const WhdSweepResult &from, size_t kBegin,
            const WhdSweepResult &r)
{
    WhdSweepResult out = from;
    out.comparisons += r.comparisons;
    out.offsetsPruned += r.offsetsPruned;
    out.chunks += r.chunks;
    if (r.best < from.best) {
        out.best = r.best;
        out.bestK = static_cast<uint32_t>(kBegin + r.bestK);
    }
    return out;
}

/**
 * Chunk arithmetic of the lane sweeps for a read of length n,
 * 1 <= n <= kMaxReadLen (whd_simd.cc note 2).  A pruned lane that
 * aborted on comparison cnt + 1 <= n ran cnt / width + 1 chunks,
 * the last ending at comparison min(n, chunks * width).  A width
 * above n chunks like n (one chunk per offset), so width <= 256,
 * and with cnt < n that makes cnt * recip >> 16, recip =
 * ceil(2^16 / width), exactly cnt / width (cnt * width < 2^16): a
 * multiply, also in u16 lanes.  At width 1 every comparison is a
 * chunk, and the sweeps skip this.  Internal to the lane sweeps.
 */
struct WhdLaneChunks
{
    WhdLaneChunks(uint32_t pruneChunk, size_t n)
        : width(pruneChunk < n ? pruneChunk : static_cast<uint32_t>(n)),
          recip((0xFFFFu + width) / width)
    {
    }

    /** Chunks run by a lane that aborted on comparison cnt + 1. */
    uint32_t chunksOf(uint32_t cnt) const { return (cnt * recip >> 16) + 1; }

    uint32_t width;
    uint32_t recip;
};

/**
 * AVX2 entry points (defined in whd_avx2.cc, compiled with the avx2
 * function target; call only when simdKernelSupported(Avx2)).
 * Internal to the dispatch layer -- use whdSweep() and
 * whdRowKernels().
 */
WhdSweepResult whdSweepUnprunedAvx2(const uint8_t *cons, size_t m,
                                    const uint8_t *read,
                                    const uint8_t *qual, size_t n);
WhdSweepResult whdSweepPrunedAvx2(const uint8_t *cons, size_t m,
                                  const uint8_t *read,
                                  const uint8_t *qual, size_t n,
                                  uint32_t pruneChunk,
                                  uint32_t startBest);
void whdChunkRowAvx2(const uint8_t *cons, const uint8_t *read,
                     const uint8_t *qual, size_t len, size_t count,
                     uint16_t *row);
WhdSweepResult whdReplayRowsAvx2(const uint16_t *rows, size_t stride,
                                 size_t n, size_t count,
                                 uint32_t startBest);

} // namespace iracc

#endif // IRACC_REALIGN_WHD_SIMD_HH
