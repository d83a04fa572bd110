/**
 * @file
 * Nucleotide base representation.
 *
 * IRACC deliberately stores sequences as one byte per base ('A', 'C',
 * 'G', 'T', 'N'), matching the paper's accelerator design choice
 * (Section III-A, "Data Reuse"): although 3 bits suffice, one byte
 * per base/quality enables byte- and block-aligned memory reads and
 * trivial index decoding, and it is the exact layout marshalled into
 * the accelerator's input buffers.
 */

#ifndef IRACC_GENOMICS_BASE_HH
#define IRACC_GENOMICS_BASE_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace iracc {

/** One byte per base; values are the ASCII characters themselves. */
using BaseSeq = std::string;

/** The four nucleotides plus the ambiguous base. */
enum class Base : uint8_t { A = 0, C = 1, G = 2, T = 3, N = 4 };

/** @return the Base for an ASCII character (case-insensitive). */
Base charToBase(char c);

/** @return the canonical ASCII character for a Base. */
char baseToChar(Base b);

/** @return true if c is one of A/C/G/T/N (case-insensitive). */
bool isValidBaseChar(char c);

/** @return the Watson-Crick complement character (N maps to N). */
char complement(char c);

/** @return the reverse complement of a sequence. */
BaseSeq reverseComplement(const BaseSeq &seq);

/**
 * @return true when every character of seq is a valid base (checked
 * by the active SIMD kernel, genomics/scan_kernels.hh).
 */
bool isValidSequence(std::string_view seq);

/** Index (0..3) of a concrete base for substitution sampling. */
int baseIndex(char c);

/** The concrete bases in index order, "ACGT". */
extern const char kConcreteBases[4];

} // namespace iracc

#endif // IRACC_GENOMICS_BASE_HH
