/**
 * @file
 * Text serialization: FASTA for references, FASTQ for raw reads, and
 * a SAM-lite tab-separated format for aligned reads.  These exist so
 * example programs can persist and exchange data sets, and so the
 * repository has a real I/O boundary to test; they are not on the
 * accelerator hot path.
 */

#ifndef IRACC_GENOMICS_IO_HH
#define IRACC_GENOMICS_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"

namespace iracc {

struct ParseError;

/** Write a reference genome as FASTA (60-column wrapped). */
void writeFasta(std::ostream &os, const ReferenceGenome &ref);

/** Parse a FASTA stream into a reference genome; malformed input is
 *  fatal(), or with @p error described there. */
ReferenceGenome readFasta(std::istream &is, std::string *error = nullptr);

/** Write reads as FASTQ (alignment information is dropped). */
void writeFastq(std::ostream &os, const std::vector<Read> &reads);

/** Parse a FASTQ stream into unaligned reads. */
std::vector<Read> readFastq(std::istream &is);

/**
 * Write aligned reads in SAM-lite: one tab-separated line per read
 * with name, contig name, 1-based position, mapq, CIGAR, flags,
 * bases, and FASTQ-encoded qualities.
 */
void writeSamLite(std::ostream &os, const ReferenceGenome &ref,
                  const std::vector<Read> &reads);

/** Parse SAM-lite; contig names are resolved against @p ref.  A
 *  malformed record is fatal(), or with @p err described there. */
std::vector<Read> readSamLite(std::istream &is,
                              const ReferenceGenome &ref,
                              ParseError *err = nullptr);

} // namespace iracc

#endif // IRACC_GENOMICS_IO_HH
