#include "genomics/scan_kernels.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "genomics/base.hh"
#include "genomics/quality.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

constexpr uint8_t kPhredOffset = 33;
constexpr uint8_t kMaxQualityChar = kPhredOffset + kMaxPhred;

// ----- scalar: the reference loops ---------------------------------

bool
isLowByte(char c)
{
    return static_cast<uint8_t>(c) <= 0x20;
}

bool
isInvalidBase(char c)
{
    return !isValidBaseChar(c);
}

bool
isInvalidQualityChar(char c)
{
    const uint8_t u = static_cast<uint8_t>(c);
    return u < kPhredOffset || u > kMaxQualityChar;
}

/** First byte of [from, n) that fails @p Bad, one at a time. */
template <bool (*Bad)(char)>
size_t
findScalar(const char *p, size_t n, size_t from)
{
    for (size_t i = from; i < n; ++i) {
        if (Bad(p[i]))
            return i;
    }
    return n;
}

void
decodeQualityCharsScalar(const char *text, size_t n, uint8_t *out)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<uint8_t>(text[i] - kPhredOffset);
}

bool
encodeQualityCharsScalar(const uint8_t *quals, size_t n, char *out)
{
    uint8_t max = 0;
    for (size_t i = 0; i < n; ++i) {
        max = std::max(max, quals[i]);
        out[i] = static_cast<char>(quals[i] + kPhredOffset);
    }
    return max <= kMaxPhred;
}

// ----- generic: SWAR over 64-bit words ------------------------------
//
// Each predicate leaves the high bit of a byte set iff the byte is
// flagged.  The low seven bits are added separately from the high
// bit, and no sum exceeds 0xFE, so no carry crosses a byte.

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
constexpr uint64_t kHigh = 0x8080808080808080ull;

uint64_t
load8(const void *p)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

void
store8(void *p, uint64_t w)
{
    std::memcpy(p, &w, 8);
}

/** Bytes < c, for 1 <= c <= 0x80. */
uint64_t
bytesBelow(uint64_t w, uint8_t c)
{
    return ~(((w & kLow7) + kOnes * (0x80u - c)) | w) & kHigh;
}

/** Bytes > c, for c <= 0x7F. */
uint64_t
bytesAbove(uint64_t w, uint8_t c)
{
    return (((w & kLow7) + kOnes * (0x7Fu - c)) | w) & kHigh;
}

/** Bytes != 0. */
uint64_t
bytesNonZero(uint64_t w)
{
    return (((w & kLow7) + kLow7) | w) & kHigh;
}

/** Index in the word of the first (lowest-address) flagged byte. */
size_t
firstFlagged(uint64_t mask)
{
    if constexpr (std::endian::native == std::endian::little)
        return static_cast<size_t>(std::countr_zero(mask)) / 8;
    else
        return static_cast<size_t>(std::countl_zero(mask)) / 8;
}

uint64_t
lowBytes(uint64_t w)
{
    return bytesBelow(w, 0x21);
}

uint64_t
invalidBases(uint64_t w)
{
    // Setting bit 5 folds upper case onto lower case; the only other
    // byte it maps onto a lower-case base is that base itself.
    const uint64_t x = w | (kOnes * 0x20);
    return bytesNonZero(x ^ (kOnes * 'a')) &
           bytesNonZero(x ^ (kOnes * 'c')) &
           bytesNonZero(x ^ (kOnes * 'g')) &
           bytesNonZero(x ^ (kOnes * 't')) &
           bytesNonZero(x ^ (kOnes * 'n'));
}

uint64_t
invalidQualityChars(uint64_t w)
{
    return bytesBelow(w, kPhredOffset) |
           bytesAbove(w, kMaxQualityChar);
}

/** findScalar<Bad> a word at a time; the < 8-byte tail per byte. */
template <uint64_t (*Flag)(uint64_t), bool (*Bad)(char)>
size_t
findGeneric(const char *p, size_t n, size_t from)
{
    size_t i = from;
    for (; i + 8 <= n; i += 8) {
        const uint64_t mask = Flag(load8(p + i));
        if (mask != 0)
            return i + firstFlagged(mask);
    }
    return findScalar<Bad>(p, n, i);
}

void
decodeQualityCharsGeneric(const char *text, size_t n, uint8_t *out)
{
    // Every byte is >= 33, so the word subtract cannot borrow.
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store8(out + i, load8(text + i) - kOnes * kPhredOffset);
    decodeQualityCharsScalar(text + i, n - i, out + i);
}

bool
encodeQualityCharsGeneric(const uint8_t *quals, size_t n, char *out)
{
    // A score <= kMaxPhred plus 33 stays below 0x80, so the word add
    // only carries out of a byte that is flagged anyway.
    uint64_t bad = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const uint64_t w = load8(quals + i);
        bad |= bytesAbove(w, kMaxPhred);
        store8(out + i, w + kOnes * kPhredOffset);
    }
    return encodeQualityCharsScalar(quals + i, n - i, out + i) &&
           bad == 0;
}

} // anonymous namespace

size_t
findLowByte(const char *line, size_t n, size_t from, SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return findScalar<isLowByte>(line, n, from);
      case SimdKernel::Avx2:
        if (n >= 32)
            return findLowByteAvx2(line, n, from);
        [[fallthrough]];
      case SimdKernel::Generic:
        return findGeneric<lowBytes, isLowByte>(line, n, from);
    }
    panic("findLowByte: unknown kernel %d", static_cast<int>(kernel));
}

size_t
findInvalidBase(const char *seq, size_t n, SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return findScalar<isInvalidBase>(seq, n, 0);
      case SimdKernel::Avx2:
        if (n >= 32)
            return findInvalidBaseAvx2(seq, n);
        [[fallthrough]];
      case SimdKernel::Generic:
        return findGeneric<invalidBases, isInvalidBase>(seq, n, 0);
    }
    panic("findInvalidBase: unknown kernel %d",
          static_cast<int>(kernel));
}

size_t
findInvalidQualityChar(const char *text, size_t n, SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return findScalar<isInvalidQualityChar>(text, n, 0);
      case SimdKernel::Avx2:
        if (n >= 32)
            return findInvalidQualityCharAvx2(text, n);
        [[fallthrough]];
      case SimdKernel::Generic:
        return findGeneric<invalidQualityChars, isInvalidQualityChar>(
            text, n, 0);
    }
    panic("findInvalidQualityChar: unknown kernel %d",
          static_cast<int>(kernel));
}

void
decodeQualityChars(const char *text, size_t n, uint8_t *out,
                   SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return decodeQualityCharsScalar(text, n, out);
      case SimdKernel::Avx2:
        if (n >= 32)
            return decodeQualityCharsAvx2(text, n, out);
        [[fallthrough]];
      case SimdKernel::Generic:
        return decodeQualityCharsGeneric(text, n, out);
    }
    panic("decodeQualityChars: unknown kernel %d",
          static_cast<int>(kernel));
}

bool
encodeQualityChars(const uint8_t *quals, size_t n, char *out,
                   SimdKernel kernel)
{
    switch (kernel) {
      case SimdKernel::Scalar:
        return encodeQualityCharsScalar(quals, n, out);
      case SimdKernel::Avx2:
        if (n >= 32)
            return encodeQualityCharsAvx2(quals, n, out);
        [[fallthrough]];
      case SimdKernel::Generic:
        return encodeQualityCharsGeneric(quals, n, out);
    }
    panic("encodeQualityChars: unknown kernel %d",
          static_cast<int>(kernel));
}

#if !IRACC_HAVE_AVX2
// Stubs keep the link closed on non-x86 / non-GNU toolchains; the
// dispatch layer never routes here (simdKernelSupported is false).
size_t
findLowByteAvx2(const char *, size_t, size_t)
{
    fatal("AVX2 scan kernels are not compiled into this binary");
}

size_t
findInvalidBaseAvx2(const char *, size_t)
{
    fatal("AVX2 scan kernels are not compiled into this binary");
}

size_t
findInvalidQualityCharAvx2(const char *, size_t)
{
    fatal("AVX2 scan kernels are not compiled into this binary");
}

void
decodeQualityCharsAvx2(const char *, size_t, uint8_t *)
{
    fatal("AVX2 scan kernels are not compiled into this binary");
}

bool
encodeQualityCharsAvx2(const uint8_t *, size_t, char *)
{
    fatal("AVX2 scan kernels are not compiled into this binary");
}
#endif

} // namespace iracc
