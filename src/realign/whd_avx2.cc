/**
 * @file
 * AVX2 implementations of the WHD offset sweep.  Compiled with
 * per-function target attributes so the translation unit builds
 * under the project's baseline flags; the dispatch layer routes here
 * only after CPUID reports AVX2.  The loop shapes (and the
 * correctness argument for bit-equal counters, whd_simd.cc notes
 * 1-5) mirror the generic sweeps in whd_simd.cc: the unpruned and
 * per-comparison pruned sweeps and the width-32 row replay run
 * sixteen offsets per vector of u16 lanes, the row builder sums a
 * chunk at sixteen offsets per step, and the per-pair width-32
 * per-chunk sweep, which has no generic counterpart of that shape,
 * evaluates four offsets per step -- tests/whd_test.cc referees
 * the equality.
 */

#include "realign/whd_simd.hh"

#if IRACC_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "realign/limits.hh"
#include "realign/whd.hh"

#define IRACC_AVX2 __attribute__((target("avx2")))

namespace iracc {

namespace {

/** Exact WHD of a single offset, for the lane sweeps' lone offsets. */
uint32_t
offsetWhdTail(const uint8_t *cons_k, const uint8_t *read,
              const uint8_t *qual, size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += (cons_k[p] != read[p]) ? qual[p] : 0;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Accumulate 16 offset lanes over the full read.  Per base p the 16
 * consensus bytes the lanes need are the contiguous run
 * cons_k0[p..p+15]; read/qual bytes are broadcast.  Quality adds
 * stay in 16-bit lanes for <= 256 bases (256 * 255 < 2^16), spill to
 * 32-bit every chunk, and to the 64-bit output every 2^23 bases
 * (2^15 chunks * 65280 < 2^32).
 */
IRACC_AVX2 void
unprunedLanes16(const uint8_t *cons_k0, const uint8_t *read,
                const uint8_t *qual, size_t n, uint64_t acc[16])
{
    const __m256i zero = _mm256_setzero_si256();
    for (size_t l = 0; l < 16; ++l)
        acc[l] = 0;
    size_t p = 0;
    while (p < n) {
        const size_t superEnd =
            std::min(n, p + (static_cast<size_t>(1) << 23));
        __m256i acc32lo = zero;
        __m256i acc32hi = zero;
        while (p < superEnd) {
            const size_t chunkEnd = std::min(superEnd, p + 256);
            __m256i acc16 = zero;
            for (; p < chunkEnd; ++p) {
                const __m128i cb = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(cons_k0 + p));
                const __m256i c16 = _mm256_cvtepu8_epi16(cb);
                const __m256i r16 =
                    _mm256_set1_epi16(static_cast<short>(read[p]));
                const __m256i q16 =
                    _mm256_set1_epi16(static_cast<short>(qual[p]));
                const __m256i eq = _mm256_cmpeq_epi16(c16, r16);
                acc16 = _mm256_add_epi16(
                    acc16, _mm256_andnot_si256(eq, q16));
            }
            acc32lo = _mm256_add_epi32(
                acc32lo,
                _mm256_cvtepu16_epi32(_mm256_castsi256_si128(acc16)));
            acc32hi = _mm256_add_epi32(
                acc32hi, _mm256_cvtepu16_epi32(
                             _mm256_extracti128_si256(acc16, 1)));
        }
        alignas(32) uint32_t part[16];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(part),
                            acc32lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(part + 8),
                            acc32hi);
        for (size_t l = 0; l < 16; ++l)
            acc[l] += part[l];
    }
}

/** Per-base mismatch qualities of one 32-byte block (0 on a match). */
IRACC_AVX2 inline __m256i
mismatchQual32(const uint8_t *c, const uint8_t *r, const uint8_t *q)
{
    const __m256i cv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(c));
    const __m256i rv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r));
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(q));
    return _mm256_andnot_si256(_mm256_cmpeq_epi8(cv, rv), qv);
}

/** Horizontal sum of 32 unsigned bytes. */
IRACC_AVX2 inline uint32_t
byteSum32(__m256i v)
{
    // SAD against zero yields four 64-bit partials.
    const __m256i sad = _mm256_sad_epu8(v, _mm256_setzero_si256());
    const __m128i lo = _mm256_castsi256_si128(sad);
    const __m128i hi = _mm256_extracti128_si256(sad, 1);
    const __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<uint32_t>(_mm_cvtsi128_si64(s) +
                                 _mm_extract_epi64(s, 1));
}

/** Mismatch-quality sum over an arbitrary-length range. */
IRACC_AVX2 inline uint32_t
rangeSum(const uint8_t *c, const uint8_t *r, const uint8_t *q,
         size_t len)
{
    uint32_t sum = 0;
    size_t i = 0;
    for (; i + 32 <= len; i += 32)
        sum += byteSum32(mismatchQual32(c + i, r + i, q + i));
    for (; i < len; ++i)
        sum += (c[i] != r[i]) ? q[i] : 0;
    return sum;
}

/** Running-minimum sentinel of the per-chunk sweep: no minimum yet. */
constexpr uint64_t kNoMinimum = ~static_cast<uint64_t>(0);

/** Consecutive offsets the width-32 sweep evaluates per step. */
constexpr size_t kOffsetGroup = 4;

/**
 * Full 32-byte chunks whose cumulative sums an offset group keeps:
 * the accelerator's read-length limit.  Longer reads (reachable
 * only through direct whdSweep calls) run offset by offset.
 */
constexpr size_t kGroupMaxChunks = kMaxReadLen / kWhdPruneBlock;

/**
 * One 32-byte chunk of four consecutive offsets: lane j (u64) is
 * the mismatch-quality sum of consensus bytes cons_k0[j..j+31]
 * against the read/quality chunk @p rv / @p qv.
 */
IRACC_AVX2 inline __m256i
groupChunkSums(const uint8_t *cons_k0, __m256i rv, __m256i qv)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i sad[kOffsetGroup];
    for (size_t j = 0; j < kOffsetGroup; ++j) {
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cons_k0 + j));
        sad[j] = _mm256_sad_epu8(
            _mm256_andnot_si256(_mm256_cmpeq_epi8(cv, rv), qv), zero);
    }
    // Per 128-bit lane: [offset 0's half sum, offset 1's half sum].
    const __m256i s01 =
        _mm256_add_epi64(_mm256_unpacklo_epi64(sad[0], sad[1]),
                         _mm256_unpackhi_epi64(sad[0], sad[1]));
    const __m256i s23 =
        _mm256_add_epi64(_mm256_unpacklo_epi64(sad[2], sad[3]),
                         _mm256_unpackhi_epi64(sad[2], sad[3]));
    // [s01 high | s23 low] + [s01 low | s23 high] = [S0, S1, S2, S3].
    return _mm256_add_epi64(
        _mm256_permute2x128_si256(s01, s23, 0x21),
        _mm256_blend_epi32(s01, s23, 0xF0));
}

/**
 * Pruned sweep, per-chunk (hardware datapath) semantics: the
 * minimum check and the counters tick at pruneChunk granularity.
 * The minimum lives in 64 bits with an all-ones "none yet" sentinel
 * (whd_simd.cc note 3), so each prune test is one exact compare;
 * counters stay in locals -- the uint8_t inputs may alias the
 * result -- and are derived from the exit point.  Width32 runs each
 * full chunk as one 32-byte block sum and, once a minimum exists,
 * evaluates four consecutive offsets per step (whd_simd.cc note 4);
 * otherwise chunks go through rangeSum.  The read's n % pruneChunk
 * tail is the last chunk; at width 32 after a full chunk it is
 * summed over the window's last 32 bytes masked to the tail, so no
 * load leaves the read or the window.
 */
template <bool Width32>
IRACC_AVX2 WhdSweepResult
sweepPrunedPerChunk(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, uint32_t pruneChunk, uint32_t startBest)
{
    const size_t w = Width32 ? kWhdPruneBlock : pruneChunk;
    const size_t fullEnd = n - n % w;
    const size_t full = fullEnd / w;
    const size_t tail = n - fullEnd;
    const uint64_t chunksPerOffset = full + (tail != 0);
    const size_t offsets = m - n + 1;
    const bool grouped =
        Width32 && full != 0 && full <= kGroupMaxChunks;
    uint64_t best = kNoMinimum;
    if (startBest != kWhdInfinity)
        best = startBest;
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t chunks = 0;
    uint64_t offsetsPruned = 0;

    // Bytes 32 - tail .. 31 of the window's last 32: its tail.
    const __m256i tailMask = _mm256_cmpgt_epi8(
        _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                         14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
                         25, 26, 27, 28, 29, 30, 31),
        _mm256_set1_epi8(static_cast<char>(Width32 ? 31 - tail : 0)));

    // An offset that aborted at full chunk c.
    auto prunedAt = [&](size_t c) {
        chunks += c + 1;
        comparisons += (c + 1) * w;
        ++offsetsPruned;
    };
    // An offset that cleared every full chunk with running sum whd:
    // its tail is the last prune check, then the minimum update.
    auto settle = [&](size_t k, uint64_t whd) IRACC_AVX2 {
        chunks += chunksPerOffset;
        comparisons += n;
        if (tail != 0) {
            if (Width32 && full != 0) {
                const size_t q = n - kWhdPruneBlock;
                whd += byteSum32(_mm256_and_si256(
                    mismatchQual32(cons + k + q, read + q, qual + q),
                    tailMask));
            } else {
                whd += rangeSum(cons + k + fullEnd, read + fullEnd,
                                qual + fullEnd, tail);
            }
            if (whd >= best) {
                ++offsetsPruned;
                return;
            }
        }
        const uint64_t v = std::min<uint64_t>(whd, kWhdMax);
        if (v < best) {
            best = v;
            bestK = static_cast<uint32_t>(k);
        }
    };

    // Cumulative chunk sums of the current group, one row per chunk;
    // a group reads back only rows it wrote.
    alignas(32) uint64_t cum[kGroupMaxChunks][kOffsetGroup];
    size_t k = 0;
    while (k < offsets) {
        if (grouped && best != kNoMinimum &&
            k + kOffsetGroup <= offsets) {
            // best <= kWhdMax here, so the signed 64-bit compare is
            // exact; lane j of `below` is set while offset k + j's
            // running sum is under the group-start minimum.
            const __m256i bv =
                _mm256_set1_epi64x(static_cast<long long>(best));
            __m256i acc = _mm256_setzero_si256();
            unsigned below = (1u << kOffsetGroup) - 1;
            uint64_t executed = 0; // chunks run by the group so far
            for (size_t c = 0; c < full; ++c) {
                const size_t p = c * kWhdPruneBlock;
                const __m256i rv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(read + p));
                const __m256i qv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(qual + p));
                acc = _mm256_add_epi64(
                    acc, groupChunkSums(cons + k + p, rv, qv));
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(cum[c]), acc);
                executed += static_cast<unsigned>(
                    __builtin_popcount(below));
                below = static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_castsi256_pd(_mm256_cmpgt_epi64(bv, acc))));
                if (below == 0)
                    break;
            }
            if (below == 0) {
                // All four aborted in the full chunks against the
                // group-start minimum, which nobody lowered.
                chunks += executed;
                comparisons += executed * kWhdPruneBlock;
                offsetsPruned += kOffsetGroup;
            } else {
                // Offset by offset, each against the minimum as
                // the earlier members left it.  Running sums are
                // monotone, so the chunks still under it number
                // the abort chunk.
                for (size_t j = 0; j < kOffsetGroup; ++j) {
                    size_t c = 0;
                    for (size_t i = 0; i < full; ++i)
                        c += cum[i][j] < best;
                    if (c < full)
                        prunedAt(c);
                    else
                        settle(k + j, cum[full - 1][j]);
                }
            }
            k += kOffsetGroup;
            continue;
        }

        const uint8_t *cons_k = cons + k;
        uint64_t whd = 0;
        size_t chunk = 0;
        for (; chunk < fullEnd; chunk += w) {
            whd += Width32 ? byteSum32(mismatchQual32(cons_k + chunk,
                                                      read + chunk,
                                                      qual + chunk))
                           : rangeSum(cons_k + chunk, read + chunk,
                                      qual + chunk, w);
            if (whd >= best)
                break;
        }
        if (chunk < fullEnd)
            prunedAt(chunk / w);
        else
            settle(k, whd);
        ++k;
    }
    WhdSweepResult r;
    r.best = best == kNoMinimum ? kWhdInfinity
                                : static_cast<uint32_t>(best);
    r.bestK = bestK;
    r.comparisons = comparisons;
    r.chunks = chunks;
    r.offsetsPruned = offsetsPruned;
    return r;
}

/** A vector of kWhdLanes u16 lanes whose first @p lanes are set. */
IRACC_AVX2 inline __m256i
laneMask(size_t lanes)
{
    const __m256i index = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8,
                                            9, 10, 11, 12, 13, 14, 15);
    return _mm256_cmpgt_epi16(
        _mm256_set1_epi16(static_cast<short>(lanes)), index);
}

/**
 * One block of the per-comparison lane sweep: lane l runs offset
 * cons_k0 + l over the n bases (whd_simd.cc note 2).  @p rw / @p qw
 * hold each read base and quality in both u16 halves of a u32, so
 * one broadcast fills the sixteen lanes.  @p bound is the running
 * minimum and @p acc the running sums, both biased by 0x8000 so
 * that the signed compare is exact.  @p cnt counts each lane's
 * comparisons while alive.  Every 8 bases the block stops once no
 * lane in @p used is alive.  Returns the movemask (two bits per
 * lane) of the used lanes still alive after the last base.
 */
IRACC_AVX2 inline uint32_t
laneBlock(const uint8_t *cons_k0, const uint32_t *rw,
          const uint32_t *qw, size_t n, __m256i bound, __m256i used,
          __m256i &acc, __m256i &cnt)
{
    acc = _mm256_set1_epi16(static_cast<short>(0x8000));
    cnt = _mm256_setzero_si256();
    __m256i alive = _mm256_setzero_si256();
    auto step = [&](size_t p) IRACC_AVX2 {
        const __m256i c = _mm256_cvtepu8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(cons_k0 + p)));
        const __m256i r = _mm256_set1_epi32(static_cast<int>(rw[p]));
        const __m256i q = _mm256_set1_epi32(static_cast<int>(qw[p]));
        acc = _mm256_add_epi16(
            acc, _mm256_andnot_si256(_mm256_cmpeq_epi16(c, r), q));
        alive = _mm256_cmpgt_epi16(bound, acc);
        cnt = _mm256_sub_epi16(cnt, alive);
    };
    size_t p = 0;
    for (; p + 8 <= n; p += 8) {
        for (size_t i = 0; i < 8; ++i)
            step(p + i);
        if (_mm256_testz_si256(alive, used))
            return 0;
    }
    for (; p < n; ++p)
        step(p);
    return static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(alive, used)));
}

/** Sum of the first @p lanes u16 lanes of @p v (each < 2^15). */
IRACC_AVX2 inline uint32_t
laneSum(__m256i v, size_t lanes)
{
    const __m256i s = _mm256_madd_epi16(
        _mm256_and_si256(v, laneMask(lanes)), _mm256_set1_epi16(1));
    __m128i t = _mm_add_epi32(_mm256_castsi256_si128(s),
                              _mm256_extracti128_si256(s, 1));
    t = _mm_add_epi32(t, _mm_unpackhi_epi64(t, t));
    t = _mm_add_epi32(t, _mm_shuffle_epi32(t, 1));
    return static_cast<uint32_t>(_mm_cvtsi128_si32(t));
}

/**
 * Pruned sweep, per-comparison (software) semantics, for
 * 1 <= n <= kMaxReadLen: sixteen consecutive offsets per block
 * (whd_simd.cc notes 2 and 4).  A pruned lane ran cnt + 1
 * comparisons.  The block ends at its first surviving lane, which
 * sets the minimum; the next block starts one offset later.  An
 * offset with no minimum to prune against runs alone, and the last
 * < 16 offsets run from a zero-padded copy of the consensus.
 */
IRACC_AVX2 WhdSweepResult
sweepPrunedLanes(const uint8_t *cons, size_t m, const uint8_t *read,
                 const uint8_t *qual, size_t n, uint32_t startBest)
{
    uint32_t rw[kMaxReadLen];
    uint32_t qw[kMaxReadLen];
    for (size_t p = 0; p < n; ++p) {
        rw[p] = read[p] * 0x00010001u;
        qw[p] = qual[p] * 0x00010001u;
    }

    alignas(16) uint8_t pad[kMaxReadLen + kWhdLanes];
    const size_t offsets = m - n + 1;
    uint64_t best = kNoMinimum;
    if (startBest != kWhdInfinity)
        best = startBest;
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t offsetsPruned = 0;
    size_t k = 0;
    while (k < offsets) {
        if (best == kNoMinimum) {
            best = offsetWhdTail(cons + k, read, qual, n);
            bestK = static_cast<uint32_t>(k);
            comparisons += n;
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
        const __m256i bound = _mm256_set1_epi16(static_cast<short>(
            std::min<uint64_t>(best, 0xFFFF) ^ 0x8000));
        __m256i acc = _mm256_setzero_si256();
        __m256i cnt = _mm256_setzero_si256();
        const uint32_t live = laneBlock(src, rw, qw, n, bound,
                                        laneMask(lanes), acc, cnt);
        const size_t first =
            live != 0 ? static_cast<size_t>(__builtin_ctz(live)) / 2
                      : lanes;
        comparisons += first + laneSum(cnt, first);
        offsetsPruned += first;
        k += first;
        if (first < lanes) {
            alignas(32) uint16_t sums[kWhdLanes];
            _mm256_store_si256(reinterpret_cast<__m256i *>(sums), acc);
            best = sums[first] ^ 0x8000u;
            bestK = static_cast<uint32_t>(k);
            comparisons += n;
            ++k;
        }
    }
    WhdSweepResult r;
    r.best = best == kNoMinimum ? kWhdInfinity
                                : static_cast<uint32_t>(best);
    r.bestK = bestK;
    r.comparisons = comparisons;
    r.chunks = comparisons;
    r.offsetsPruned = offsetsPruned;
    return r;
}

/**
 * Sums of one 32-byte chunk at sixteen consecutive offsets, as u16
 * lanes in offset order.  One SAD per offset gives four u64
 * partials of eight bytes each (<= 2,040); two rounds of unsigned
 * packs gather four offsets' partials into one vector of u16 lanes,
 * partials 0-1 in the low 128-bit lane and 2-3 in the high one, and
 * pairwise adds and a cross-lane add finish the sums.
 */
IRACC_AVX2 inline __m256i
chunkSums16(const uint8_t *cons_k0, __m256i rv, __m256i qv)
{
    const __m256i zero = _mm256_setzero_si256();
    auto sad = [&](size_t j) IRACC_AVX2 {
        const __m256i cv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(cons_k0 + j));
        return _mm256_sad_epu8(
            _mm256_andnot_si256(_mm256_cmpeq_epi8(cv, rv), qv), zero);
    };
    // x[g], per 128-bit lane: offsets 4g..4g+3, two partials each.
    __m256i x[4];
    for (size_t g = 0; g < 4; ++g) {
        const size_t j = 4 * g;
        x[g] = _mm256_packus_epi32(
            _mm256_packus_epi32(sad(j), sad(j + 1)),
            _mm256_packus_epi32(sad(j + 2), sad(j + 3)));
    }
    // Per 128-bit lane: offsets 0-7 (then 8-15), partials 0+1 in
    // the low lane and 2+3 in the high one.
    const __m256i h01 = _mm256_hadd_epi16(x[0], x[1]);
    const __m256i h23 = _mm256_hadd_epi16(x[2], x[3]);
    return _mm256_add_epi16(_mm256_permute2x128_si256(h01, h23, 0x20),
                            _mm256_permute2x128_si256(h01, h23, 0x31));
}

/**
 * The n % 32 tail chunk of a read at sixteen offsets, as u16 lanes
 * one base at a time: for a short tail this costs less than a SAD
 * per offset.  @p rw / @p qw hold each base and quality in both u16
 * halves of a u32, as laneBlock's do.
 */
IRACC_AVX2 inline __m256i
tailSums16(const uint8_t *cons_k0, const uint32_t *rw,
           const uint32_t *qw, size_t len)
{
    __m256i acc = _mm256_setzero_si256();
    for (size_t p = 0; p < len; ++p) {
        const __m256i c = _mm256_cvtepu8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(cons_k0 + p)));
        const __m256i r = _mm256_set1_epi32(static_cast<int>(rw[p]));
        const __m256i q = _mm256_set1_epi32(static_cast<int>(qw[p]));
        acc = _mm256_add_epi16(
            acc, _mm256_andnot_si256(_mm256_cmpeq_epi16(c, r), q));
    }
    return acc;
}

} // anonymous namespace

IRACC_AVX2 void
whdChunkRowAvx2(const uint8_t *cons, const uint8_t *read,
                const uint8_t *qual, size_t len, size_t count,
                uint16_t *row)
{
    const bool full = len == kWhdPruneBlock;
    const __m256i rv =
        full ? _mm256_loadu_si256(reinterpret_cast<const __m256i *>(read))
             : _mm256_setzero_si256();
    const __m256i qv =
        full ? _mm256_loadu_si256(reinterpret_cast<const __m256i *>(qual))
             : _mm256_setzero_si256();
    uint32_t rw[kWhdPruneBlock];
    uint32_t qw[kWhdPruneBlock];
    if (!full) {
        for (size_t p = 0; p < len; ++p) {
            rw[p] = read[p] * 0x00010001u;
            qw[p] = qual[p] * 0x00010001u;
        }
    }
    auto block = [&](size_t k) IRACC_AVX2 {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + k),
                            full ? chunkSums16(cons + k, rv, qv)
                                 : tailSums16(cons + k, rw, qw, len));
    };
    if (count < kWhdLanes) {
        for (size_t k = 0; k < count; ++k) {
            uint32_t sum = 0;
            for (size_t p = 0; p < len; ++p)
                sum += (cons[k + p] != read[p]) ? qual[p] : 0;
            row[k] = static_cast<uint16_t>(sum);
        }
        return;
    }
    size_t k = 0;
    for (; k + kWhdLanes <= count; k += kWhdLanes)
        block(k);
    // The last block ends at the last offset and rewrites equal
    // sums over the offsets it shares with the one before.
    if (k < count)
        block(count - kWhdLanes);
}

IRACC_AVX2 WhdSweepResult
whdReplayRowsAvx2(const uint16_t *rows, size_t stride, size_t n,
                  size_t count, uint32_t startBest)
{
    const size_t numRows = (n + kWhdPruneBlock - 1) / kWhdPruneBlock;
    const uint64_t tailShort = numRows * kWhdPruneBlock - n;
    const __m256i lastRow =
        _mm256_set1_epi16(static_cast<short>(numRows - 1));
    uint32_t best = startBest;
    uint32_t bestK = 0;
    uint64_t chunks = 0;
    uint64_t tails = 0;
    uint64_t offsetsPruned = 0;
    size_t k = 0;
    while (k < count) {
        const size_t lanes = std::min(kWhdLanes, count - k);
        // Sums never exceed 65,280, so a minimum above 0xFFFF (none
        // yet included) prunes exactly like 0xFFFF.
        const __m256i bound = _mm256_set1_epi16(static_cast<short>(
            std::min<uint32_t>(best, 0xFFFF) ^ 0x8000));
        __m256i acc = _mm256_set1_epi16(static_cast<short>(0x8000));
        __m256i cnt = _mm256_setzero_si256();
        __m256i alive = _mm256_setzero_si256();
        for (size_t c = 0; c < numRows; ++c) {
            acc = _mm256_add_epi16(
                acc, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                         rows + c * stride + k)));
            alive = _mm256_cmpgt_epi16(bound, acc);
            cnt = _mm256_sub_epi16(cnt, alive);
        }
        // Lanes before the first survivor aborted in chunk cnt, and
        // those with cnt == numRows - 1 in the last one.
        auto aborted = [&](size_t lanesBefore) IRACC_AVX2 {
            const uint64_t before = (uint64_t{1} << (2 * lanesBefore)) - 1;
            const uint32_t inLast = static_cast<uint32_t>(
                static_cast<uint32_t>(_mm256_movemask_epi8(
                    _mm256_cmpeq_epi16(cnt, lastRow))) &
                before);
            chunks += lanesBefore + laneSum(cnt, lanesBefore);
            tails += static_cast<unsigned>(__builtin_popcount(inLast)) / 2;
            offsetsPruned += lanesBefore;
            k += lanesBefore;
        };
        const uint32_t live = static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_and_si256(alive, laneMask(lanes))));
        if (live == 0) {
            // No survivor, the common step: a predicted branch keeps
            // the next step's loads off this one's compares.
            aborted(lanes);
            continue;
        }
        const size_t first = static_cast<size_t>(__builtin_ctz(live)) / 2;
        aborted(first);
        alignas(32) uint16_t sums[kWhdLanes];
        _mm256_store_si256(reinterpret_cast<__m256i *>(sums), acc);
        best = sums[first] ^ 0x8000u;
        bestK = static_cast<uint32_t>(k);
        chunks += numRows;
        ++tails;
        ++k;
    }
    WhdSweepResult r;
    r.best = best;
    r.bestK = bestK;
    r.chunks = chunks;
    // Every chunk runs 32 comparisons but a last one, which runs
    // n % 32 of them when that is nonzero.
    r.comparisons = chunks * kWhdPruneBlock - tails * tailShort;
    r.offsetsPruned = offsetsPruned;
    return r;
}

IRACC_AVX2 WhdSweepResult
whdSweepUnprunedAvx2(const uint8_t *cons, size_t m,
                     const uint8_t *read, const uint8_t *qual,
                     size_t n)
{
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    uint64_t acc[16];
    size_t k0 = 0;
    for (; k0 + 16 <= offsets; k0 += 16) {
        unprunedLanes16(cons + k0, read, qual, n, acc);
        for (size_t l = 0; l < 16; ++l) {
            const uint32_t v = acc[l] > kWhdMax
                                   ? kWhdMax
                                   : static_cast<uint32_t>(acc[l]);
            // Strict <: first minimal offset wins (ascending k).
            if (v < r.best) {
                r.best = v;
                r.bestK = static_cast<uint32_t>(k0 + l);
            }
        }
    }
    // Scalar tail: a full 16-lane block would read past the
    // consensus.
    for (; k0 < offsets; ++k0) {
        const uint32_t v = offsetWhdTail(cons + k0, read, qual, n);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0);
        }
    }
    return r;
}

WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *cons, size_t m,
                   const uint8_t *read, const uint8_t *qual,
                   size_t n, uint32_t pruneChunk, uint32_t startBest)
{
    if (pruneChunk == 1)
        return sweepPrunedLanes(cons, m, read, qual, n, startBest);
    if (pruneChunk == kWhdPruneBlock)
        return sweepPrunedPerChunk<true>(cons, m, read, qual, n,
                                         pruneChunk, startBest);
    return sweepPrunedPerChunk<false>(cons, m, read, qual, n,
                                      pruneChunk, startBest);
}

} // namespace iracc

#endif // IRACC_HAVE_AVX2
