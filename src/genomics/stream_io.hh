/**
 * @file
 * Pull-based streaming readers for FASTQ and SAM-lite.
 *
 * The batch readers in genomics/io.hh materialize a whole file; a
 * cloud service ingesting whole genomes cannot afford that, and it
 * cannot afford the batch readers' failure mode either (fatal/panic
 * on the first malformed byte).  The readers here pull one record at
 * a time from an std::istream, hold only that record in memory, and
 * report malformed input as a machine-readable ParseError instead of
 * terminating -- a hostile file can never abort the process or reach
 * undefined behaviour, it can only produce an error code (asserted
 * exhaustively by tests/stream_io_test.cc).
 *
 * SamLiteBatchSource layers contig grouping on top: it yields one
 * contig's reads per call, which is what the bounded-memory job
 * entry point RealignSession::runStreamed consumes.  Peak memory is
 * then proportional to the largest contig's read batch, not the
 * genome (see core/realign_job.hh).
 */

#ifndef IRACC_GENOMICS_STREAM_IO_HH
#define IRACC_GENOMICS_STREAM_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"

namespace iracc {

/**
 * Machine-readable rejection codes for streaming parsers.  Stable
 * tokens (streamErrorName) so callers -- the server's job error
 * field, CLI exit messages, tests -- can match on them without
 * scraping prose.
 */
enum class StreamErrorCode
{
    None = 0,         ///< no error (end of stream)
    OversizedLine,    ///< line exceeds StreamLimits::maxLineBytes
    TruncatedRecord,  ///< EOF in the middle of a multi-line record
    MalformedRecord,  ///< record structure wrong (header/separator)
    WrongFieldCount,  ///< SAM-lite line without exactly 8 fields
    MalformedField,   ///< numeric field fails whole-token parsing
    FieldOutOfRange,  ///< numeric field outside its legal range
    MalformedCigar,   ///< CIGAR string fails Cigar::tryFromString
    CigarMismatch,    ///< CIGAR consumes != sequence length bases
    InvalidBase,      ///< base outside the A/C/G/T/N alphabet
    InvalidQuality,   ///< quality char outside the Sanger range
    LengthMismatch,   ///< bases and qualities differ in length
    UnknownContig,    ///< contig name not in the reference
    PositionOutOfRange, ///< POS < 1 or start beyond the contig end
    UngroupedInput,   ///< contig's reads split across batches
};

/** @return the stable token for a code, e.g. "truncated-record". */
const char *streamErrorName(StreamErrorCode code);

/** One rejected record's diagnosis. */
struct ParseError
{
    StreamErrorCode code = StreamErrorCode::None;

    /** 1-based line number the rejection anchors to (0 = none). */
    uint64_t line = 0;

    /** Human-readable detail (the machine-readable part is code). */
    std::string message;

    bool ok() const { return code == StreamErrorCode::None; }

    /** "<token>: line N: <message>" -- what CLI/server surface. */
    std::string describe() const;
};

/** Result of one pull from a streaming reader. */
enum class StreamStatus
{
    Record, ///< a record was produced
    End,    ///< clean end of stream
    Error,  ///< malformed input; see the ParseError
};

/** Resource bounds a streaming reader enforces on its input. */
struct StreamLimits
{
    /** Longest accepted line; longer input is rejected (not
     *  buffered) with OversizedLine.  1 MiB default comfortably
     *  holds any SAM-lite line for kMaxReadLen-sized reads. */
    size_t maxLineBytes = 1u << 20;
};

/**
 * Line tokenizer shared by the streaming readers: strips one
 * trailing '\r' (CRLF input), counts lines, and enforces
 * StreamLimits::maxLineBytes without ever buffering an oversized
 * line.
 *
 * The scanner pulls kBlockBytes blocks from the stream's buffer
 * and splits lines inside them, so it reads ahead of the line it
 * returns: from construction on, the scanner (and the reader that
 * holds it) owns the stream, and nothing else may read from it.
 */
class LineScanner
{
  public:
    /** Bytes pulled from the stream per refill. */
    static constexpr size_t kBlockBytes = 64u << 10;

    explicit LineScanner(std::istream &is, StreamLimits limits = {});

    /**
     * Pull the next line.  @return false at end of stream (err
     * untouched) and on an oversized line (err filled); true with
     * @p line filled otherwise.  The view stays valid until the
     * next call.
     */
    bool next(std::string_view *line, ParseError *err);

    /** 1-based number of the line last returned. */
    uint64_t lineNumber() const { return lineno; }

  private:
    /** Replace the drained block; @return false at end of stream. */
    bool refill();

    std::istream &in;
    StreamLimits lim;
    uint64_t lineno = 0;
    std::vector<char> block;
    size_t head = 0; ///< next unread byte of block
    size_t tail = 0; ///< end of the valid bytes of block
    /** A line that straddles a refill, assembled across blocks. */
    std::string carry;
};

/**
 * Pull-based FASTQ reader: one 4-line record per next() call.
 * Blank lines between records are tolerated; everything else that
 * deviates from the format is an Error, never a crash.
 */
class FastqStreamReader
{
  public:
    explicit FastqStreamReader(std::istream &is,
                               StreamLimits limits = {});

    /** Pull one read.  @p out is only written on Record. */
    StreamStatus next(Read *out, ParseError *err);

    /** Records successfully produced so far. */
    uint64_t records() const { return count; }

  private:
    LineScanner scanner;
    uint64_t count = 0;
};

/**
 * Pull-based SAM-lite reader.  Every field is validated with
 * whole-token parsing (util/argparse) before a Read is built, so an
 * accepted record always satisfies Read::assertValid -- hostile
 * input cannot smuggle a panic into the pipeline:
 *
 *  - exactly 8 whitespace-separated fields (WrongFieldCount)
 *  - contig resolved against the reference (UnknownContig)
 *  - POS a whole-token integer (MalformedField), >= 1 and on the
 *    contig (PositionOutOfRange)
 *  - MAPQ in [0, 255], FLAG in [0, 0xFFFF] (FieldOutOfRange)
 *  - CIGAR via Cigar::tryFromString (MalformedCigar), consuming
 *    exactly the sequence length (CigarMismatch)
 *  - bases in the A/C/G/T/N alphabet (InvalidBase)
 *  - qualities in the Sanger range (InvalidQuality), same length
 *    as the bases (LengthMismatch)
 *
 * Comment lines ('#') and blank lines are skipped, matching the
 * batch reader.  Field splitting and the base and quality checks
 * run on the active SIMD kernel (genomics/scan_kernels.hh); every
 * kernel yields the same records and the same ParseError.
 */
class SamLiteStreamReader
{
  public:
    SamLiteStreamReader(std::istream &is, const ReferenceGenome &ref,
                        StreamLimits limits = {});

    /**
     * Pull one read.  @p out is only written on Record: every field
     * is checked first, then parsed into *out in place (matePos and
     * truePos, which SAM-lite does not carry, are reset to -1).  The
     * bases and decoded qualities are appended to the reader's
     * current SeqArena block, which the read then shares; reads
     * outlive the reader.
     */
    StreamStatus next(Read *out, ParseError *err);

    /** Records successfully produced so far. */
    uint64_t records() const { return count; }

  private:
    LineScanner scanner;
    SeqArena arena;
    const ReferenceGenome &genome;
    uint64_t count = 0;
    /** Contig of the previous record (input is contig-grouped). */
    int32_t lastContig = -1;
};

/**
 * Contig batching over a SAM-lite stream -- the input of
 * RealignSession::runStreamed.  Requires the input to be
 * contig-grouped (all of a contig's reads adjacent -- the order
 * writeSamLite produces); a contig reappearing after its run ended
 * is rejected with UngroupedInput, because silently splitting it
 * would break the streaming/in-memory bit-equality contract
 * (docs/TESTING.md).
 */
class SamLiteBatchSource
{
  public:
    SamLiteBatchSource(std::istream &is, const ReferenceGenome &ref,
                       StreamLimits limits = {});

    /**
     * Pull the next contig batch: on Record, @p contig and @p reads
     * describe one whole contig, in input order, and the consumer
     * may realign and discard it before pulling the next, which is
     * what bounds memory.  On Error the stream is poisoned: further
     * calls return End.
     */
    StreamStatus nextBatch(int32_t *contig, std::vector<Read> *reads,
                           ParseError *err);

    /** Reads successfully produced so far (across batches). */
    uint64_t records() const { return reader.records(); }

  private:
    SamLiteStreamReader reader;
    /** The first read of the next contig, pulled to end this batch. */
    Read pending;
    bool havePending = false;
    bool finished = false;
    std::unordered_set<int32_t> seenContigs;
};

} // namespace iracc

#endif // IRACC_GENOMICS_STREAM_IO_HH
