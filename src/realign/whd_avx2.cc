/**
 * @file
 * AVX2 implementations of the WHD offset sweep.  Compiled with
 * per-function target attributes so the translation unit builds
 * under the project's baseline flags; the dispatch layer routes here
 * only after CPUID reports AVX2.  The loop shapes (and the
 * correctness argument for bit-equal counters, whd_simd.cc notes
 * 1-5) mirror the generic sweeps in whd_simd.cc: the unpruned
 * sweep, the pruned sweep at every datapath width and the width-32
 * row replay run sixteen offsets per vector of u16 lanes, and the
 * row builder sums a chunk at sixteen offsets per step --
 * tests/whd_test.cc referees the equality.
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

/** Running-minimum sentinel of the lane sweep: no minimum yet. */
constexpr uint64_t kNoMinimum = ~static_cast<uint64_t>(0);

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
 * One block of the pruned lane sweep: lane l runs offset
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

/**
 * Pruned sweep for 1 <= n <= kMaxReadLen at any pruneChunk @p w:
 * sixteen consecutive offsets per block (whd_simd.cc notes 2 and 4).
 * A pruned lane aborted on comparison cnt + 1, and WhdLaneChunks
 * gives its chunks.  The block ends at its first surviving lane,
 * which sets the minimum; the next block starts one offset later.
 * An offset with no minimum to prune against runs alone, and the
 * last < 16 offsets run from a zero-padded copy of the consensus.
 */
IRACC_AVX2 WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *cons, size_t m, const uint8_t *read,
                   const uint8_t *qual, size_t n, uint32_t w,
                   uint32_t startBest)
{
    uint32_t rw[kMaxReadLen];
    uint32_t qw[kMaxReadLen];
    for (size_t p = 0; p < n; ++p) {
        rw[p] = read[p] * 0x00010001u;
        qw[p] = qual[p] * 0x00010001u;
    }

    alignas(16) uint8_t pad[kMaxReadLen + kWhdLanes];
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
            best = offsetWhdTail(cons + k, read, qual, n);
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
        const __m256i bound = _mm256_set1_epi16(static_cast<short>(
            std::min<uint64_t>(best, 0xFFFF) ^ 0x8000));
        __m256i acc = _mm256_setzero_si256();
        __m256i cnt = _mm256_setzero_si256();
        const uint32_t live = laneBlock(src, rw, qw, n, bound,
                                        laneMask(lanes), acc, cnt);
        const size_t first =
            live != 0 ? static_cast<size_t>(__builtin_ctz(live)) / 2
                      : lanes;
        if (lw.width == 1) {
            comparisons += first + laneSum(cnt, first);
        } else {
            // Per lane cnt / width + 1 chunks (WhdLaneChunks), the
            // last ending at comparison min(n, chunks * width).
            const __m256i c = _mm256_add_epi16(
                _mm256_mulhi_epu16(
                    cnt, _mm256_set1_epi16(static_cast<short>(lw.recip))),
                _mm256_set1_epi16(1));
            const __m256i end = _mm256_mullo_epi16(
                c, _mm256_set1_epi16(static_cast<short>(lw.width)));
            chunks += laneSum(c, first);
            comparisons += laneSum(
                _mm256_min_epu16(
                    end, _mm256_set1_epi16(static_cast<short>(n))),
                first);
        }
        offsetsPruned += first;
        k += first;
        if (first < lanes) {
            alignas(32) uint16_t sums[kWhdLanes];
            _mm256_store_si256(reinterpret_cast<__m256i *>(sums), acc);
            best = sums[first] ^ 0x8000u;
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

} // namespace iracc

#endif // IRACC_HAVE_AVX2
