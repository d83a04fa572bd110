#include "realign/whd_simd.hh"

#include <algorithm>
#include <cstring>

#include "realign/limits.hh"
#include "realign/whd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Correctness notes shared by every vectorized path (the scalar
 * sweep below is the literal reference loop; generic and AVX2 are
 * proven equal to it by tests/whd_test.cc and the differential
 * harness):
 *
 * 1. Saturating accumulation folds: whdAccumulate is
 *    min(whd + q, kWhdMax), so folding it over any sequence of
 *    qualities equals min(plain 64-bit sum, kWhdMax).  Vectorized
 *    paths therefore accumulate plain sums in wide integers and
 *    clamp once at the end.
 * 2. Prune point from lane liveness: within one offset the running
 *    sum is monotone non-decreasing, so the scalar kernel's abort
 *    point -- the first executed comparison whose running sum
 *    reaches the current minimum B -- comes right after the last
 *    comparison whose sum is still below B.  The per-comparison
 *    sweeps run kWhdLanes consecutive offsets as lanes; after each
 *    base a lane is alive while its sum is below B, and its count
 *    of alive steps, cnt, only grows while it is alive.  A lane
 *    that dies aborted on comparison cnt + 1, with no search for
 *    the crossing; once no lane is alive the block can stop, which
 *    the sweeps check every 8 bases.  A lane alive after all n
 *    bases is not pruned.  Lanes hold sums and counts in u16: for
 *    n <= kMaxReadLen a sum is at most 256 * 255 = 65,280, so a
 *    minimum above 0xFFFF prunes like 0xFFFF, and biasing sums and
 *    minimum by 0x8000 makes a signed 16-bit compare an exact
 *    unsigned one.  Reads of length 0 (no comparison to abort on)
 *    and longer than kMaxReadLen run the scalar reference.
 *    The same lanes serve every pruneChunk W.  The check at the end
 *    of a W-base chunk sees a running sum no smaller than any
 *    inside the chunk, so an offset clears every chunk end exactly
 *    when its full sum is below B, and it survives, or aborts, at
 *    every W alike: the minima, bestK and offsetsPruned do not
 *    depend on W.  An offset that aborts on comparison p at W = 1
 *    has a sum below B at every chunk end before p and at or above
 *    B at the end of the chunk holding p, so at width W it aborts
 *    in chunk ceil(p / W) = cnt / W + 1 after min(n,
 *    ceil(p / W) * W) comparisons.  A survivor runs ceil(n / W)
 *    chunks and n comparisons.
 * 3. Plain-vs-saturated compares: for best <= kWhdMax,
 *    min(sum, kWhdMax) >= best iff sum >= best; for
 *    best == kWhdInfinity the saturated value (<= kWhdMax) never
 *    reaches it.  The vectorized pruned sweeps therefore compare
 *    plain sums.  They hold the minimum in 64 bits with an all-ones
 *    "no minimum yet" sentinel, which no plain sum reaches
 *    (whd <= n * 255 < 2^64 - 1), so whd >= best is one exact
 *    compare and a found minimum (<= kWhdMax) narrows back to the
 *    32-bit result.
 * 4. Offset blocks: the lane sweeps of note 2 and the row replay
 *    of note 5 decide kWhdLanes consecutive offsets against the
 *    minimum B at the block's start.  Within a block the minimum
 *    only falls, and only when a member survives (an aborted
 *    offset never touches it).  So every member before the first
 *    survivor saw nothing but B, and its abort point is final.
 *    The first surviving lane sets the new minimum and ends its
 *    block; the next block starts at the offset after it, against
 *    the lowered minimum.  In the lane sweeps an offset with no
 *    minimum yet (the first of a sweep that starts without one)
 *    runs alone, and the last < kWhdLanes offsets run from a
 *    zero-padded copy of the consensus, so no load leaves it; the
 *    padding lanes are masked out of every decision.
 * 5. Offset ranges: a sweep's state before offset k -- the running
 *    minimum, its offset, and the comparisons, chunks and pruned
 *    offsets so far -- depends only on the windows at offsets
 *    < k.  whdSweep(kBegin, kEnd, from) therefore runs a kernel on
 *    the sub-row cons + kBegin, whose offsets are kBegin..kEnd - 1,
 *    with from's minimum as the starting minimum, and adds the
 *    counters to from's.  kWhdInfinity stays the "none yet"
 *    sentinel (note 3), and the running minimum never exceeds
 *    kWhdMax once one exists.  A minimum found in the range is
 *    strictly below from's, so the first minimal offset still
 *    wins.  The same argument lets one target sweep
 *    (realign/whd.cc) share work across consensuses: each is the
 *    reference window (consensus 0) with one indel applied.  Let
 *    consensus i share its first P bytes and its last S bytes with
 *    consensus 0, and let d = m_0 - m_i.  For a read of length n,
 *    offsets k < P - n + 1 see consensus 0's windows, so consensus
 *    i starts from consensus 0's state there.  Offsets
 *    k >= m_i - S see consensus 0's windows at k + d.  If the
 *    running minimum entering them equals consensus 0's at the
 *    matching offset, every prune and minimum update repeats, so
 *    consensus i adds consensus 0's counter deltas over those
 *    offsets and takes consensus 0's final minimum (offset - d)
 *    when it fell there.  Otherwise the shared suffix is swept.
 *    Only the offsets whose window touches the indel are always
 *    swept.
 *    At pruneChunk 32 the target sweep replays chunk rows instead
 *    of running whdSweep on each range.  For a read of length n,
 *    1 <= n <= kMaxReadLen, no longer than consensus 0, row c at
 *    offset k holds the mismatch-quality sum of chunk c (read bytes
 *    [32c, min(n, 32c + 32))) at that offset.  Consensus 0's rows T
 *    are summed once, over every offset.  Consensus i's window at
 *    offset k takes chunk c from T[c][k] when the chunk's bytes lie
 *    in the shared prefix (k + chunkEnd <= P) and consensus 0 has
 *    offset k (k <= m_0 - n), and from T[c][k + d] when they lie in
 *    the shared suffix (k + chunkStart >= m_i - S) and k + d >= 0;
 *    only the other chunks are summed from consensus i's bytes.
 *    Equal bytes give equal sums, so the rows are exactly the
 *    window's chunk sums, and where prefix and suffix overlap (an
 *    indel in a tandem repeat) either source holds the same value.
 *    A re-swept suffix replays T at k + d and sums nothing.  The
 *    replay decides kWhdLanes offsets per vector of biased u16
 *    lanes (note 2: sums <= 65,280) against the running minimum B.
 *    Running sums are monotone, so a lane's count a of rows whose
 *    running sum stays below B is the chunk the scalar loop aborts
 *    at, and a lane below B after the last row survives.  By note
 *    4's lane argument every lane before the first survivor saw
 *    only B: each is one pruned offset of a + 1 chunks and
 *    min(n, 32 (a + 1)) comparisons, which is 32 (a + 1) less
 *    32 - n % 32 when a is the last row and n % 32 != 0.  The first
 *    survivor sets B, adds ceil(n / 32) chunks and n comparisons,
 *    and the next step starts after it; lanes past the range's end
 *    read row padding and are masked out.  Reads of length 0 or
 *    above kMaxReadLen, and reads longer than consensus 0, run
 *    whdSweep pair by pair.
 */

/**
 * The reference sweep: the software kernel's per-comparison loop
 * (pruneChunk == 1) and the hardware datapath's per-chunk loop
 * (pruneChunk == width) are the same code shape -- one running
 * minimum check per pruneChunk-base chunk, counters ticking as the
 * chunk executes.
 */
WhdSweepResult
sweepScalar(const uint8_t *cons, size_t m, const uint8_t *read,
            const uint8_t *qual, size_t n, bool prune,
            uint32_t pruneChunk, uint32_t startBest)
{
    WhdSweepResult r;
    r.best = startBest;
    for (size_t k = 0; k + n <= m; ++k) {
        uint32_t whd = 0;
        bool pruned = false;
        for (size_t chunk = 0; chunk < n; chunk += pruneChunk) {
            const size_t lanes =
                std::min<size_t>(pruneChunk, n - chunk);
            ++r.chunks;
            r.comparisons += lanes;
            for (size_t lane = 0; lane < lanes; ++lane) {
                const size_t p = chunk + lane;
                if (cons[k + p] != read[p])
                    whd = whdAccumulate(whd, qual[p]);
            }
            // The running-minimum register is checked once per
            // chunk (once per comparison at pruneChunk == 1):
            // computation pruning.
            if (prune && whd >= r.best) {
                pruned = true;
                break;
            }
        }
        if (pruned) {
            ++r.offsetsPruned;
            continue;
        }
        if (whd < r.best) {
            r.best = whd;
            r.bestK = static_cast<uint32_t>(k);
        }
    }
    return r;
}

/** Exact WHD of a single offset: plain 64-bit sum, clamped once. */
uint32_t
offsetWhd(const uint8_t *cons_k, const uint8_t *read,
          const uint8_t *qual, size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += (cons_k[p] != read[p]) ? qual[p] : 0;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Unpruned generic sweep: kWhdLanes offsets advance
 * together.  For base p the consensus bytes the lanes need --
 * cons[k0+l+p] for l in [0, L) -- are contiguous, so the inner loop
 * is a straight-line compare/mask/add over adjacent bytes that any
 * vectorizer handles.  Lanes accumulate 32-bit partials inside
 * superchunks short enough not to overflow, spilling to 64-bit.
 */
void
unprunedLanesGeneric(const uint8_t *cons_k0, const uint8_t *read,
                     const uint8_t *qual, size_t n,
                     uint64_t acc[kWhdLanes])
{
    constexpr size_t kSuper = 65535; // 65535 * 255 < 2^32
    for (size_t l = 0; l < kWhdLanes; ++l)
        acc[l] = 0;
    for (size_t start = 0; start < n; start += kSuper) {
        const size_t end = std::min(n, start + kSuper);
        uint32_t part[kWhdLanes] = {};
        for (size_t p = start; p < end; ++p) {
            const uint8_t rb = read[p];
            const uint8_t q = qual[p];
            const uint8_t *c = cons_k0 + p;
            for (size_t l = 0; l < kWhdLanes; ++l)
                part[l] += (c[l] != rb) ? q : 0;
        }
        for (size_t l = 0; l < kWhdLanes; ++l)
            acc[l] += part[l];
    }
}

/** Fold one lane block's results into the running minimum. */
void
mergeLanes(const uint64_t acc[], size_t lanes, size_t k0,
           WhdSweepResult &r)
{
    for (size_t l = 0; l < lanes; ++l) {
        const uint32_t v = acc[l] > kWhdMax
                               ? kWhdMax
                               : static_cast<uint32_t>(acc[l]);
        // Strict <: the first minimal offset wins, and blocks are
        // visited in ascending k.
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0 + l);
        }
    }
}

WhdSweepResult
sweepUnprunedGeneric(const uint8_t *cons, size_t m,
                     const uint8_t *read, const uint8_t *qual,
                     size_t n)
{
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    size_t k0 = 0;
    uint64_t acc[kWhdLanes];
    for (; k0 + kWhdLanes <= offsets; k0 += kWhdLanes) {
        unprunedLanesGeneric(cons + k0, read, qual, n, acc);
        mergeLanes(acc, kWhdLanes, k0, r);
    }
    // Scalar tail: fewer than kWhdLanes offsets remain (a
    // full lane block would read past the consensus).
    for (; k0 < offsets; ++k0) {
        const uint32_t v = offsetWhd(cons + k0, read, qual, n);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0);
        }
    }
    return r;
}

/**
 * Pruned sweep for 1 <= n <= kMaxReadLen at any pruneChunk @p w:
 * kWhdLanes consecutive offsets per block in biased u16 lanes
 * (notes 2 and 4).  The lane loops run over local arrays, like
 * unprunedLanesGeneric, so the compiler vectorizes them.  A pruned
 * lane aborted on comparison cnt + 1, and WhdLaneChunks gives its
 * chunks; the block ends at its first surviving lane, which sets
 * the minimum.  An offset with no minimum to prune against runs
 * alone, and the last < kWhdLanes offsets run from a zero-padded
 * copy of the consensus.
 */
WhdSweepResult
sweepPrunedLanesGeneric(const uint8_t *cons, size_t m,
                        const uint8_t *read, const uint8_t *qual,
                        size_t n, uint32_t w, uint32_t startBest)
{
    constexpr uint64_t kNoMinimum = ~static_cast<uint64_t>(0);
    uint8_t pad[kMaxReadLen + kWhdLanes];
    const size_t offsets = m - n + 1;
    const WhdLaneChunks lw(w, n);
    const uint64_t survivorChunks = (n + lw.width - 1) / lw.width;
    uint64_t best = kNoMinimum;
    if (startBest != kWhdInfinity)
        best = startBest;
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t chunks = 0;
    uint64_t offsetsPruned = 0;
    size_t k = 0;
    while (k < offsets) {
        if (best == kNoMinimum) {
            best = offsetWhd(cons + k, read, qual, n);
            bestK = static_cast<uint32_t>(k);
            comparisons += n;
            chunks += survivorChunks;
            ++k;
            continue;
        }
        const size_t lanes = std::min(kWhdLanes, offsets - k);
        const uint8_t *src = cons + k;
        if (lanes < kWhdLanes) {
            const size_t len = n + lanes - 1;
            std::memcpy(pad, src, len);
            std::memset(pad + len, 0, kWhdLanes - lanes);
            src = pad;
        }
        // Sums never exceed 65,280, so a minimum above 0xFFFF
        // prunes exactly like 0xFFFF.
        const int16_t bound = static_cast<int16_t>(
            std::min<uint64_t>(best, 0xFFFF) ^ 0x8000);
        uint16_t used[kWhdLanes];
        uint16_t acc[kWhdLanes];
        uint16_t cnt[kWhdLanes];
        uint16_t alive[kWhdLanes];
        for (size_t l = 0; l < kWhdLanes; ++l) {
            used[l] = l < lanes ? 0xFFFF : 0;
            acc[l] = 0x8000;
            cnt[l] = 0;
            alive[l] = 0;
        }
        bool dead = false;
        for (size_t p = 0; p < n && !dead;) {
            for (const size_t stop = std::min(n, p + 8); p < stop;
                 ++p) {
                const uint8_t rb = read[p];
                const uint8_t q = qual[p];
                const uint8_t *c = src + p;
                // Kept as a loop: GCC -O3 would otherwise unroll it
                // completely before vectorizing and leave it scalar.
#pragma GCC unroll 1
                for (size_t l = 0; l < kWhdLanes; ++l) {
                    const uint8_t miss = c[l] != rb ? q : 0;
                    acc[l] = static_cast<uint16_t>(acc[l] + miss);
                    alive[l] = static_cast<int16_t>(acc[l]) < bound
                                   ? 0xFFFF
                                   : 0;
                    cnt[l] = static_cast<uint16_t>(cnt[l] - alive[l]);
                }
            }
            uint16_t any = 0;
            for (size_t l = 0; l < kWhdLanes; ++l)
                any |= alive[l] & used[l];
            dead = any == 0;
        }
        size_t first = 0;
        if (lw.width == 1) {
            for (; first < lanes && alive[first] == 0; ++first)
                comparisons += cnt[first] + 1u;
        } else {
            for (; first < lanes && alive[first] == 0; ++first) {
                const uint32_t c = lw.chunksOf(cnt[first]);
                chunks += c;
                comparisons += std::min<size_t>(n, c * lw.width);
            }
        }
        offsetsPruned += first;
        k += first;
        if (first < lanes) {
            best = acc[first] ^ 0x8000u;
            bestK = static_cast<uint32_t>(k);
            comparisons += n;
            chunks += survivorChunks;
            ++k;
        }
    }
    WhdSweepResult r;
    r.best = best == kNoMinimum ? kWhdInfinity
                                : static_cast<uint32_t>(best);
    r.bestK = bestK;
    r.comparisons = comparisons;
    // At width 1 every comparison is a chunk.
    r.chunks = lw.width == 1 ? comparisons : chunks;
    r.offsetsPruned = offsetsPruned;
    return r;
}

/** Plain loop of WhdRowKernels::chunkRow. */
void
chunkRowScalar(const uint8_t *cons, const uint8_t *read,
               const uint8_t *qual, size_t len, size_t count,
               uint16_t *row)
{
    for (size_t k = 0; k < count; ++k) {
        uint32_t sum = 0;
        for (size_t p = 0; p < len; ++p)
            sum += (cons[k + p] != read[p]) ? qual[p] : 0;
        row[k] = static_cast<uint16_t>(sum);
    }
}

/**
 * WhdRowKernels::chunkRow in kWhdLanes-offset blocks of u16 lanes (a
 * chunk sum is at most 32 * 255 = 8,160).  The last block ends at
 * the last offset, rewriting equal sums where it overlaps the one
 * before, so no load leaves the windows; fewer than kWhdLanes
 * offsets run the plain loop.
 */
void
chunkRowGeneric(const uint8_t *cons, const uint8_t *read,
                const uint8_t *qual, size_t len, size_t count,
                uint16_t *row)
{
    if (count < kWhdLanes)
        return chunkRowScalar(cons, read, qual, len, count, row);
    auto block = [&](size_t k) {
        uint16_t acc[kWhdLanes] = {};
        for (size_t p = 0; p < len; ++p) {
            const uint8_t rb = read[p];
            const uint8_t q = qual[p];
            const uint8_t *c = cons + k + p;
            // A mask, not a ?: select, which GCC leaves scalar here.
#pragma GCC unroll 1
            for (size_t l = 0; l < kWhdLanes; ++l) {
                const uint8_t ne = c[l] != rb;
                acc[l] = static_cast<uint16_t>(
                    acc[l] + (q & static_cast<uint8_t>(-ne)));
            }
        }
        std::memcpy(row + k, acc, sizeof(acc));
    };
    size_t k = 0;
    for (; k + kWhdLanes <= count; k += kWhdLanes)
        block(k);
    if (k < count)
        block(count - kWhdLanes);
}

/** Chunk rows of a read of length n. */
size_t
chunkRows(size_t n)
{
    return (n + kWhdPruneBlock - 1) / kWhdPruneBlock;
}

/**
 * Plain loop of WhdRowKernels::replayRows from minimum
 * @p startBest: each offset adds its rows until the running sum
 * reaches the minimum, exactly as sweepScalar adds its chunks.
 * Sums are at most 65,280, below the kWhdInfinity sentinel.
 */
WhdSweepResult
replayRowsScalar(const uint16_t *rows, size_t stride, size_t n,
                 size_t count, uint32_t startBest)
{
    const size_t numRows = chunkRows(n);
    WhdSweepResult r;
    r.best = startBest;
    for (size_t k = 0; k < count; ++k) {
        uint32_t whd = 0;
        size_t c = 0;
        for (; c < numRows; ++c) {
            whd += rows[c * stride + k];
            if (whd >= r.best)
                break;
        }
        if (c < numRows) {
            r.chunks += c + 1;
            r.comparisons +=
                std::min<size_t>(n, (c + 1) * kWhdPruneBlock);
            ++r.offsetsPruned;
            continue;
        }
        r.chunks += numRows;
        r.comparisons += n;
        r.best = whd;
        r.bestK = static_cast<uint32_t>(k);
    }
    return r;
}

/**
 * WhdRowKernels::replayRows in kWhdLanes-offset blocks of biased u16
 * lanes (note 5): a lane's count of rows whose running sum stays
 * below the minimum is its abort chunk, and the block ends at its
 * first surviving lane.
 */
WhdSweepResult
replayRowsGeneric(const uint16_t *rows, size_t stride, size_t n,
                  size_t count, uint32_t startBest)
{
    const size_t numRows = chunkRows(n);
    const uint64_t tailShort = numRows * kWhdPruneBlock - n;
    uint32_t best = startBest;
    uint32_t bestK = 0;
    uint64_t chunks = 0;
    uint64_t tails = 0;
    uint64_t offsetsPruned = 0;
    size_t k = 0;
    while (k < count) {
        const size_t lanes = std::min(kWhdLanes, count - k);
        // Sums never exceed 65,280, so a minimum above 0xFFFF
        // (none yet included) prunes exactly like 0xFFFF.
        const int16_t bound = static_cast<int16_t>(
            std::min<uint32_t>(best, 0xFFFF) ^ 0x8000);
        uint16_t acc[kWhdLanes];
        uint16_t cnt[kWhdLanes];
        uint16_t alive[kWhdLanes];
        for (size_t l = 0; l < kWhdLanes; ++l) {
            acc[l] = 0x8000;
            cnt[l] = 0;
            alive[l] = 0;
        }
        for (size_t c = 0; c < numRows; ++c) {
            const uint16_t *row = rows + c * stride + k;
#pragma GCC unroll 1
            for (size_t l = 0; l < kWhdLanes; ++l) {
                acc[l] = static_cast<uint16_t>(acc[l] + row[l]);
                alive[l] = static_cast<int16_t>(acc[l]) < bound
                               ? 0xFFFF
                               : 0;
                cnt[l] = static_cast<uint16_t>(cnt[l] - alive[l]);
            }
        }
        size_t first = 0;
        for (; first < lanes && alive[first] == 0; ++first) {
            chunks += cnt[first] + 1u;
            tails += cnt[first] + 1u == numRows;
        }
        offsetsPruned += first;
        k += first;
        if (first < lanes) {
            best = acc[first] ^ 0x8000u;
            bestK = static_cast<uint32_t>(k);
            chunks += numRows;
            ++tails;
            ++k;
        }
    }
    WhdSweepResult r;
    r.best = best;
    r.bestK = bestK;
    r.chunks = chunks;
    // Every chunk runs kWhdPruneBlock comparisons but a last one,
    // which runs n % 32 of them when that is nonzero.
    r.comparisons = chunks * kWhdPruneBlock - tails * tailShort;
    r.offsetsPruned = offsetsPruned;
    return r;
}

/** Unpruned counters are a pure function of the sweep shape. */
void
fillUnprunedCounters(WhdSweepResult &r, size_t m, size_t n,
                     uint32_t pruneChunk)
{
    const uint64_t offsets = m - n + 1;
    r.comparisons = offsets * n;
    r.offsetsPruned = 0;
    r.chunks = n == 0 ? 0
                      : offsets * ((n + pruneChunk - 1) / pruneChunk);
}

/** @p kernel, or generic where AVX2 is not supported. */
SimdKernel
resolveKernel(SimdKernel kernel)
{
    if (kernel == SimdKernel::Avx2 &&
        !simdKernelSupported(SimdKernel::Avx2))
        return SimdKernel::Generic;
    return kernel;
}

/**
 * Sweep every offset of (cons, m) starting from minimum
 * @p startBest (kWhdInfinity = none yet); counters start at zero.
 */
WhdSweepResult
sweepFrom(const uint8_t *cons, size_t m, const uint8_t *read,
          const uint8_t *qual, size_t n, bool prune,
          uint32_t pruneChunk, SimdKernel kernel, uint32_t startBest)
{
    kernel = resolveKernel(kernel);
    // The lane sweeps keep a whole read's sums in u16 lanes (note
    // 2); other read lengths run the reference at every width.
    if (prune && (n == 0 || n > kMaxReadLen))
        kernel = SimdKernel::Scalar;

    switch (kernel) {
      case SimdKernel::Scalar:
        return sweepScalar(cons, m, read, qual, n, prune,
                           pruneChunk, startBest);

      case SimdKernel::Generic:
        if (!prune) {
            WhdSweepResult r =
                sweepUnprunedGeneric(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        return sweepPrunedLanesGeneric(cons, m, read, qual, n,
                                       pruneChunk, startBest);

      case SimdKernel::Avx2: {
        if (!prune) {
            WhdSweepResult r =
                whdSweepUnprunedAvx2(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        return whdSweepPrunedAvx2(cons, m, read, qual, n,
                                  pruneChunk, startBest);
      }
    }
    fatal("whdSweep: unknown kernel %d", static_cast<int>(kernel));
}

} // anonymous namespace

WhdSweepResult
whdSweep(const uint8_t *cons, size_t m, const uint8_t *read,
         const uint8_t *qual, size_t n, bool prune,
         uint32_t pruneChunk, SimdKernel kernel, size_t kBegin,
         size_t kEnd, const WhdSweepResult &from)
{
    panic_if(n > m, "whdSweep: read length %zu overruns consensus "
             "length %zu", n, m);
    panic_if(pruneChunk == 0, "whdSweep: pruneChunk must be >= 1");
    const size_t offsets = m - n + 1;
    if (kEnd == kWhdSweepEnd)
        kEnd = offsets;
    panic_if(kBegin > kEnd || kEnd > offsets,
             "whdSweep: offset range [%zu, %zu) outside [0, %zu)",
             kBegin, kEnd, offsets);
    if (kBegin == kEnd)
        return from;

    // The range is the whole sweep of the sub-row starting at
    // kBegin (note 5).  Unpruned sweeps ignore the starting
    // minimum; the strict < in whdContinue merges them the same
    // way.
    return whdContinue(
        from, kBegin,
        sweepFrom(cons + kBegin, kEnd - kBegin + n - 1, read, qual, n,
                  prune, pruneChunk, kernel, from.best));
}

WhdRowKernels
whdRowKernels(SimdKernel kernel)
{
    switch (resolveKernel(kernel)) {
      case SimdKernel::Scalar:
        return {chunkRowScalar, replayRowsScalar};
      case SimdKernel::Generic:
        return {chunkRowGeneric, replayRowsGeneric};
      case SimdKernel::Avx2:
        return {whdChunkRowAvx2, whdReplayRowsAvx2};
    }
    fatal("whdRowKernels: unknown kernel %d", static_cast<int>(kernel));
}

#if !IRACC_HAVE_AVX2
// Stubs keep the link closed on non-x86 / non-GNU toolchains; the
// dispatch layer never routes here (simdKernelSupported is false).
WhdSweepResult
whdSweepUnprunedAvx2(const uint8_t *, size_t, const uint8_t *,
                     const uint8_t *, size_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}

WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *, size_t, const uint8_t *,
                   const uint8_t *, size_t, uint32_t, uint32_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}

void
whdChunkRowAvx2(const uint8_t *, const uint8_t *, const uint8_t *,
                size_t, size_t, uint16_t *)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}

WhdSweepResult
whdReplayRowsAvx2(const uint16_t *, size_t, size_t, size_t, uint32_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}
#endif

} // namespace iracc
