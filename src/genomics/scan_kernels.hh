/**
 * @file
 * Per-record text kernels of SAM-lite/FASTQ ingest and write,
 * behind the process-wide SimdKernel dispatch (util/simd_kernel.hh).
 *
 *   scalar   the reference loops, one byte at a time;
 *   generic  SWAR over 64-bit words: a per-byte predicate is folded
 *            into the word's high bits with 7-bit adds that cannot
 *            carry across bytes, so the first flagged byte is one
 *            count-trailing-zeros away;
 *   avx2     32 bytes per step: compare, movemask, ctz.  A tail
 *            shorter than a vector re-reads the last 32 bytes of
 *            the buffer and shifts off the bytes already checked,
 *            so no load leaves the caller's buffer; buffers
 *            shorter than one vector run the generic kernel.
 *
 * Every finder returns the index of the first flagged byte, or the
 * length when there is none, so all kernels agree on which byte an
 * error names.  tests/stream_io_test.cc and tests/genomics_test.cc
 * sweep every kernel across vector and word boundaries.
 */

#ifndef IRACC_GENOMICS_SCAN_KERNELS_HH
#define IRACC_GENOMICS_SCAN_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "util/simd_kernel.hh"

namespace iracc {

/**
 * Index of the first byte <= 0x20 (space, tab or another control
 * byte) in [from, n) of @p line, or n when there is none.  Bytes
 * before @p from are never flagged but may be read.
 */
size_t findLowByte(const char *line, size_t n, size_t from,
                   SimdKernel kernel);

/** Index of the first byte outside A/C/G/T/N (either case), or n. */
size_t findInvalidBase(const char *seq, size_t n, SimdKernel kernel);

/**
 * Index of the first byte outside the Sanger quality range
 * ['!', '!' + kMaxPhred], or n.
 */
size_t findInvalidQualityChar(const char *text, size_t n,
                              SimdKernel kernel);

/**
 * out[i] = text[i] - 33.  Requires
 * findInvalidQualityChar(text, n) == n.
 */
void decodeQualityChars(const char *text, size_t n, uint8_t *out,
                        SimdKernel kernel);

/**
 * out[i] = quals[i] + 33.  @return false when any score exceeds
 * kMaxPhred; @p out is then unspecified.
 */
bool encodeQualityChars(const uint8_t *quals, size_t n, char *out,
                        SimdKernel kernel);

/**
 * AVX2 entry points (defined in scan_kernels_avx2.cc, compiled with
 * the avx2 function target; call only when
 * simdKernelSupported(Avx2), and only with n >= 32).  Internal to
 * the dispatch layer.
 */
size_t findLowByteAvx2(const char *line, size_t n, size_t from);
size_t findInvalidBaseAvx2(const char *seq, size_t n);
size_t findInvalidQualityCharAvx2(const char *text, size_t n);
void decodeQualityCharsAvx2(const char *text, size_t n, uint8_t *out);
bool encodeQualityCharsAvx2(const uint8_t *quals, size_t n,
                            char *out);

} // namespace iracc

#endif // IRACC_GENOMICS_SCAN_KERNELS_HH
