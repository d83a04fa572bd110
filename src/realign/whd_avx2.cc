/**
 * @file
 * AVX2 implementations of the WHD offset sweep.  Compiled with
 * per-function target attributes so the translation unit builds
 * under the project's baseline flags; the dispatch layer routes here
 * only after CPUID reports AVX2.  The loop shapes (and the
 * correctness argument for bit-equal counters, whd_simd.cc notes
 * 1-3) mirror the generic sweeps in whd_simd.cc, except that the
 * per-comparison pruned sweep finds the abort comparison in-register
 * instead of rescanning -- tests/whd_test.cc referees the equality.
 */

#include "realign/whd_simd.hh"

#if IRACC_WHD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "realign/whd.hh"

#define IRACC_AVX2 __attribute__((target("avx2")))

namespace iracc {

namespace {

/** Exact WHD of a single offset (scalar tail of the lane sweep). */
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

/**
 * Inclusive prefix sums of 16 u16 lanes: three in-lane shift/add
 * steps, then the low 128-bit lane's total (u16 element 7, spread
 * by @p bcast7) carried into the high lane.
 */
IRACC_AVX2 inline __m256i
prefixSum16(__m256i v, __m256i bcast7)
{
    v = _mm256_add_epi16(v, _mm256_slli_si256(v, 2));
    v = _mm256_add_epi16(v, _mm256_slli_si256(v, 4));
    v = _mm256_add_epi16(v, _mm256_slli_si256(v, 8));
    // permute2x128(v, v, 0x08) = [0, low lane]: only the high lane
    // gains the low lane's total.
    return _mm256_add_epi16(
        v, _mm256_shuffle_epi8(_mm256_permute2x128_si256(v, v, 0x08),
                               bcast7));
}

/**
 * Index (0..31) of the first base of a 32-byte block at which the
 * running sum of @p contrib reaches @p t, for t <= the block's
 * total.  Every prefix is at most 32 * 255 = 8160 < 2^15, so signed
 * 16-bit compares against t - 1 (-1 when t == 0) are exact.
 */
IRACC_AVX2 inline unsigned
crossingLane32(__m256i contrib, uint32_t t)
{
    const __m256i bcast7 = _mm256_set1_epi16(0x0F0E);
    const __m256i lo = prefixSum16(
        _mm256_cvtepu8_epi16(_mm256_castsi256_si128(contrib)),
        bcast7);
    __m256i hi = prefixSum16(
        _mm256_cvtepu8_epi16(_mm256_extracti128_si256(contrib, 1)),
        bcast7);
    // Carry the low half's total (u16 element 15) into every lane.
    hi = _mm256_add_epi16(
        hi, _mm256_shuffle_epi8(
                _mm256_permute2x128_si256(lo, lo, 0x11), bcast7));
    const __m256i lim =
        _mm256_set1_epi16(static_cast<short>(static_cast<int>(t) - 1));
    // movemask_epi8 yields two bits per u16 lane.
    const uint64_t mask =
        static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpgt_epi16(lo, lim))) |
        static_cast<uint64_t>(static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpgt_epi16(hi, lim))))
            << 32;
    return static_cast<unsigned>(__builtin_ctzll(mask)) / 2;
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

/**
 * Pruned sweep, per-comparison (software) semantics.  Branchless
 * 32-byte block sums; the first block whose end-of-block sum
 * crosses the running minimum yields the exact abort comparison
 * in-register (crossingLane32).  The read's n % 32 tail runs the
 * scalar per-comparison loop.
 */
IRACC_AVX2 WhdSweepResult
sweepPrunedPerComparison(const uint8_t *cons, size_t m,
                         const uint8_t *read, const uint8_t *qual,
                         size_t n)
{
    WhdSweepResult r;
    const size_t fullEnd = n - n % kWhdPruneBlock;
    for (size_t k = 0; k + n <= m; ++k) {
        const uint8_t *cons_k = cons + k;
        uint64_t whd = 0;
        // Comparisons executed up to the abort; 0 = not pruned.
        size_t executed = 0;
        size_t chunk = 0;
        for (; chunk < fullEnd; chunk += kWhdPruneBlock) {
            const __m256i contrib = mismatchQual32(
                cons_k + chunk, read + chunk, qual + chunk);
            const uint32_t bs = byteSum32(contrib);
            if (r.best != kWhdInfinity && whd + bs >= r.best) {
                executed = chunk + 1 +
                           crossingLane32(
                               contrib,
                               static_cast<uint32_t>(r.best - whd));
                break;
            }
            whd += bs;
        }
        if (executed == 0) {
            for (size_t p = chunk; p < n; ++p) {
                if (cons_k[p] != read[p])
                    whd += qual[p];
                if (r.best != kWhdInfinity && whd >= r.best) {
                    executed = p + 1;
                    break;
                }
            }
        }
        if (executed != 0) {
            r.comparisons += executed;
            r.chunks += executed;
            ++r.offsetsPruned;
            continue;
        }
        r.comparisons += n;
        r.chunks += n;
        const uint32_t v =
            whd > kWhdMax ? kWhdMax : static_cast<uint32_t>(whd);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k);
        }
    }
    return r;
}

/** Running-minimum sentinel of the per-chunk sweep: no minimum yet. */
constexpr uint64_t kNoMinimum = ~static_cast<uint64_t>(0);

/**
 * Pruned sweep, per-chunk (hardware datapath) semantics: the
 * minimum check and the counters tick at pruneChunk granularity.
 * The minimum lives in 64 bits with an all-ones "none yet" sentinel
 * (whd_simd.cc note 3), so each prune test is one exact compare;
 * counters stay in locals -- the uint8_t inputs may alias the
 * result -- and are derived from the exit point.  Width32 runs each
 * full chunk as one 32-byte block sum; otherwise chunks go through
 * rangeSum.  The read's n % pruneChunk tail is the last chunk.
 */
template <bool Width32>
IRACC_AVX2 WhdSweepResult
sweepPrunedPerChunk(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, uint32_t pruneChunk)
{
    const size_t w = Width32 ? kWhdPruneBlock : pruneChunk;
    const size_t fullEnd = n - n % w;
    const size_t tail = n - fullEnd;
    const uint64_t chunksPerOffset = fullEnd / w + (tail != 0);
    uint64_t best = kNoMinimum;
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t chunks = 0;
    uint64_t offsetsPruned = 0;
    for (size_t k = 0; k + n <= m; ++k) {
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
        if (chunk < fullEnd) {
            chunks += chunk / w + 1;
            comparisons += chunk + w;
            ++offsetsPruned;
            continue;
        }
        chunks += chunksPerOffset;
        comparisons += n;
        if (tail != 0) {
            whd += rangeSum(cons_k + fullEnd, read + fullEnd,
                            qual + fullEnd, tail);
            if (whd >= best) {
                ++offsetsPruned;
                continue;
            }
        }
        const uint64_t v = std::min<uint64_t>(whd, kWhdMax);
        if (v < best) {
            best = v;
            bestK = static_cast<uint32_t>(k);
        }
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

} // anonymous namespace

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
                   size_t n, uint32_t pruneChunk)
{
    if (pruneChunk == 1)
        return sweepPrunedPerComparison(cons, m, read, qual, n);
    if (pruneChunk == kWhdPruneBlock)
        return sweepPrunedPerChunk<true>(cons, m, read, qual, n,
                                         pruneChunk);
    return sweepPrunedPerChunk<false>(cons, m, read, qual, n,
                                      pruneChunk);
}

} // namespace iracc

#endif // IRACC_WHD_HAVE_AVX2
