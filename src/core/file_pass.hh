/**
 * @file
 * The one file pass: SAM-lite ingest -> realign -> SAM-lite write,
 * in memory or streamed, with byte-identical output either way.
 * `iracc_cli realign`, the server's file jobs, the differential
 * harness and `examples/sam_roundtrip` all run it.  Nothing here
 * exits; callers format the errors their own way.
 */

#ifndef IRACC_CORE_FILE_PASS_HH
#define IRACC_CORE_FILE_PASS_HH

#include <functional>
#include <iosfwd>
#include <string>

#include "core/realign_job.hh"

namespace iracc {

struct FilePassResult
{
    RealignJobResult job;
    ParseError parseError; ///< why ingest stopped; ok() if it did not

    /** The session ran: in memory once every read parsed, streamed
     *  once the reads and the output were open. */
    bool realigned = false;
    uint64_t reads = 0;   ///< reads realigned
    uint64_t batches = 0; ///< contig batches (streamed)

    /** Path layer: the reference it read, and why a file could not
     *  be used ("cannot open reads 'x'", a FASTA diagnosis, ...). */
    ReferenceGenome ref;
    std::string error;
};

/**
 * Realign the SAM-lite reads of @p in; in memory, every contig of
 * @p ref is run.  @p output opens the output when the pass first
 * writes: before ingest when streamed, after the job in memory (not
 * after a parse failure or a cancellation).  Null stops the pass; an
 * empty @p output writes nothing.
 */
FilePassResult runFilePass(const RealignSession &session,
                           const ReferenceGenome &ref,
                           std::istream &in,
                           const std::function<std::ostream *()> &output,
                           bool stream, const RealignJobConfig &cfg);

/**
 * The path layer: read the FASTA at @p ref_path, then run the pass
 * over the files @p reads_path and @p out_path.  In memory, a parse
 * failure leaves an existing output untouched; streamed, the output
 * is truncated first and removed on a parse failure or a
 * cancellation.  An empty @p out_path writes nothing.
 */
FilePassResult runFilePass(const RealignSession &session,
                           const std::string &ref_path,
                           const std::string &reads_path,
                           const std::string &out_path, bool stream,
                           const RealignJobConfig &cfg);

} // namespace iracc

#endif // IRACC_CORE_FILE_PASS_HH
