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
 *            compiler can auto-vectorize: the unpruned sweep and the
 *            per-comparison pruned sweep run kWhdLanes offsets at
 *            once (for base n the consensus bytes needed across
 *            offset lanes are contiguous); the per-chunk pruned
 *            sweep evaluates one offset in SWAR blocks.
 *   avx2     the same shapes hand-written with AVX2 intrinsics
 *            (compiled via function target attributes, selected at
 *            runtime only when CPUID reports AVX2).
 *
 * Every implementation is bit-equal to scalar: identical min-WHD
 * grids and offsets, identical WhdStats work counters, identical
 * datapath chunk counts.  The unpruned sweep derives its counters
 * in closed form.  The per-comparison pruned sweep counts each
 * offset lane's comparisons while its running sum is below the
 * minimum (quality accumulation is monotone, so the abort is the
 * comparison after the last one counted); the per-chunk sweeps
 * stop at the chunk whose end-of-chunk sum crosses it.  The
 * differential harness (src/testing) and tests/whd_test.cc referee
 * the equality.
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
 * unpruned sweep and both kernels' per-comparison pruned sweeps
 * (one __m256i of u16 lanes on AVX2).
 */
constexpr size_t kWhdLanes = 16;

/**
 * Chunk width at which the AVX2 per-chunk pruned sweep sums a
 * chunk in one 32-byte vector and groups offsets.
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
 * AVX2 entry points (defined in whd_avx2.cc, compiled with the avx2
 * function target; call only when simdKernelSupported(Avx2)).
 * Internal to the dispatch layer -- use whdSweep().
 */
WhdSweepResult whdSweepUnprunedAvx2(const uint8_t *cons, size_t m,
                                    const uint8_t *read,
                                    const uint8_t *qual, size_t n);
WhdSweepResult whdSweepPrunedAvx2(const uint8_t *cons, size_t m,
                                  const uint8_t *read,
                                  const uint8_t *qual, size_t n,
                                  uint32_t pruneChunk,
                                  uint32_t startBest);

} // namespace iracc

#endif // IRACC_REALIGN_WHD_SIMD_HH
