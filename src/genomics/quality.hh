/**
 * @file
 * Phred base-quality score utilities.
 *
 * A Phred quality score Q encodes the estimated probability that a
 * base call is wrong: P(err) = 10^(-Q/10).  Q10 means 90 % accuracy,
 * Q60 means 99.9999 %.  Scores are stored one byte per base (the raw
 * score, not ASCII) which is exactly what the accelerator's quality
 * input buffer holds; the FASTQ encoding (score + 33) is only used at
 * the serialization boundary.
 */

#ifndef IRACC_GENOMICS_QUALITY_HH
#define IRACC_GENOMICS_QUALITY_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace iracc {

/** Raw Phred scores, one byte per base. */
using QualSeq = std::vector<uint8_t>;

/** Highest representable Phred score in Sanger FASTQ encoding. */
constexpr uint8_t kMaxPhred = 93;

/** @return the error probability for a Phred score. */
double phredToErrorProb(uint8_t q);

/**
 * @return the Phred score for an error probability, clamped to
 * [0, kMaxPhred].
 */
uint8_t errorProbToPhred(double p);

/** @return the Sanger FASTQ ASCII character for a score. */
char phredToAscii(uint8_t q);

/** @return the Phred score for a Sanger FASTQ ASCII character. */
uint8_t asciiToPhred(char c);

/**
 * Encode @p n raw scores as FASTQ characters into @p out with the
 * active SIMD kernel; panics naming the first score above kMaxPhred.
 */
void encodeQuals(const uint8_t *quals, size_t n, char *out);

/** Encode a raw score vector as a FASTQ quality string. */
std::string qualsToAscii(std::span<const uint8_t> quals);

/** Decode a FASTQ quality string into raw scores. */
QualSeq asciiToQuals(const std::string &s);

/**
 * Non-terminating decode for untrusted input (the streaming FASTQ/
 * SAM readers): asciiToQuals panics on any character outside the
 * Sanger range, which an attacker-controlled file must never be
 * able to trigger.  @return false without touching @p out when any
 * character is out of range.
 */
bool tryAsciiToQuals(const std::string &s, QualSeq *out);

} // namespace iracc

#endif // IRACC_GENOMICS_QUALITY_HH
