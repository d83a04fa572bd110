/**
 * @file
 * AVX2 implementations of the record scan kernels (see
 * scan_kernels.hh).  Compiled with per-function target attributes
 * so the translation unit builds under the project's baseline
 * flags; the dispatch layer routes here only after CPUID reports
 * AVX2.  Each finder classifies 32 bytes per step and returns the
 * first flagged byte through movemask + ctz.  Every entry point
 * requires a buffer of at least 32 bytes and finishes with one load
 * of its last 32 bytes, shifted past the bytes already checked, so
 * no load leaves the buffer; the dispatcher sends shorter buffers
 * to the generic kernel.
 */

#include "genomics/scan_kernels.hh"

#if IRACC_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

#include "genomics/quality.hh"

#define IRACC_AVX2 __attribute__((target("avx2")))

namespace iracc {

namespace {

constexpr char kPhredOffset = 33;

IRACC_AVX2 __m256i
load32(const void *p)
{
    return _mm256_loadu_si256(static_cast<const __m256i *>(p));
}

IRACC_AVX2 void
store32(void *p, __m256i v)
{
    _mm256_storeu_si256(static_cast<__m256i *>(p), v);
}

/** Lanes whose unsigned byte is <= @p limit. */
IRACC_AVX2 __m256i
atMost(__m256i v, __m256i limit)
{
    return _mm256_cmpeq_epi8(_mm256_min_epu8(v, limit), v);
}

/** Bit i set iff byte i is <= 0x20. */
IRACC_AVX2 uint32_t
lowBytes(__m256i v)
{
    return static_cast<uint32_t>(_mm256_movemask_epi8(
        atMost(v, _mm256_set1_epi8(0x20))));
}

/** Bit i set iff byte i is not one of A/C/G/T/N in either case. */
IRACC_AVX2 uint32_t
invalidBases(__m256i v)
{
    // Setting bit 5 folds upper case onto lower case; the only
    // other byte it maps onto a lower-case base is that base.
    const __m256i x = _mm256_or_si256(v, _mm256_set1_epi8(0x20));
    __m256i ok = _mm256_cmpeq_epi8(x, _mm256_set1_epi8('a'));
    for (char b : {'c', 'g', 't', 'n'})
        ok = _mm256_or_si256(ok,
                             _mm256_cmpeq_epi8(x, _mm256_set1_epi8(b)));
    return ~static_cast<uint32_t>(_mm256_movemask_epi8(ok));
}

/** Bit i set iff byte i is outside ['!', '!' + kMaxPhred]. */
IRACC_AVX2 uint32_t
invalidQualityChars(__m256i v)
{
    // Below '!' the subtract wraps to >= 0xDF, so one unsigned
    // compare checks both ends of the range.
    const __m256i q = _mm256_sub_epi8(v, _mm256_set1_epi8(kPhredOffset));
    const __m256i ok = atMost(q, _mm256_set1_epi8(kMaxPhred));
    return ~static_cast<uint32_t>(_mm256_movemask_epi8(ok));
}

/** First byte of [from, n) flagged by @p Flag; n >= 32. */
template <uint32_t (*Flag)(__m256i)>
IRACC_AVX2 size_t
find(const char *p, size_t n, size_t from)
{
    size_t i = from;
    for (; i + 32 <= n; i += 32) {
        const uint32_t mask = Flag(load32(p + i));
        if (mask != 0)
            return i + static_cast<size_t>(__builtin_ctz(mask));
    }
    if (i == n)
        return n;
    // Bytes [n - 32, i) were checked already: shift them off.
    const uint32_t mask = Flag(load32(p + n - 32)) >> (i - (n - 32));
    return mask != 0 ? i + static_cast<size_t>(__builtin_ctz(mask)) : n;
}

} // anonymous namespace

IRACC_AVX2 size_t
findLowByteAvx2(const char *line, size_t n, size_t from)
{
    return find<lowBytes>(line, n, from);
}

IRACC_AVX2 size_t
findInvalidBaseAvx2(const char *seq, size_t n)
{
    return find<invalidBases>(seq, n, 0);
}

IRACC_AVX2 size_t
findInvalidQualityCharAvx2(const char *text, size_t n)
{
    return find<invalidQualityChars>(text, n, 0);
}

// The transforms step 32 bytes at a time and finish with the
// buffer's last 32 bytes, rewriting any overlap with equal values.

IRACC_AVX2 void
decodeQualityCharsAvx2(const char *text, size_t n, uint8_t *out)
{
    const __m256i offset = _mm256_set1_epi8(kPhredOffset);
    for (size_t i = 0;; i = std::min(i + 32, n - 32)) {
        store32(out + i, _mm256_sub_epi8(load32(text + i), offset));
        if (i + 32 == n)
            break;
    }
}

IRACC_AVX2 bool
encodeQualityCharsAvx2(const uint8_t *quals, size_t n, char *out)
{
    const __m256i offset = _mm256_set1_epi8(kPhredOffset);
    __m256i max = _mm256_setzero_si256();
    for (size_t i = 0;; i = std::min(i + 32, n - 32)) {
        const __m256i q = load32(quals + i);
        max = _mm256_max_epu8(max, q);
        store32(out + i, _mm256_add_epi8(q, offset));
        if (i + 32 == n)
            break;
    }
    const __m256i ok = atMost(max, _mm256_set1_epi8(kMaxPhred));
    return static_cast<uint32_t>(_mm256_movemask_epi8(ok)) ==
           0xFFFFFFFFu;
}

} // namespace iracc

#endif // IRACC_HAVE_AVX2
