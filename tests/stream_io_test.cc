/**
 * @file
 * Hostile-input tests for the streaming FASTQ/SAM-lite readers
 * (genomics/stream_io.hh): every StreamErrorCode rejection path is
 * exercised with a concrete malformed input, a seeded fuzz loop
 * hammers the SAM-lite reader with random mutations of valid files
 * (run under ASan/UBSan in CI), and the streaming/in-memory
 * bit-equality contract is asserted across the full differential
 * variant matrix at 1 and 4 job threads.  Every corpus is also
 * replayed through a stream that hands out a few bytes per refill,
 * and the block scanner's refill boundaries are pinned; the
 * SAM-lite writer is matched byte for byte against
 * tests/golden/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "genomics/io.hh"
#include "genomics/stream_io.hh"
#include "testing/differential.hh"
#include "testing/workload_gen.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

ReferenceGenome
smallRef()
{
    ReferenceGenome ref;
    ref.addContig("Ch9", BaseSeq(100, 'A'));
    ref.addContig("Ch10", BaseSeq(80, 'C'));
    return ref;
}

/** A stream buffer that hands out at most 7 bytes per underflow. */
class TrickleBuf : public std::streambuf
{
  public:
    explicit TrickleBuf(std::string text) : data(std::move(text)) {}

  protected:
    int_type
    underflow() override
    {
        if (pos >= data.size())
            return traits_type::eof();
        const size_t n = std::min<size_t>(7, data.size() - pos);
        char *p = &data[pos];
        setg(p, p, p + n);
        pos += n;
        return traits_type::to_int_type(*p);
    }

  private:
    std::string data;
    size_t pos = 0;
};

/** One line per pulled record, then the final status and error. */
std::vector<std::string>
samTranscript(std::istream &in, StreamLimits limits = {})
{
    ReferenceGenome ref = smallRef();
    SamLiteStreamReader reader(in, ref, limits);
    std::vector<std::string> out;
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record) {
        std::ostringstream line;
        writeSamLite(line, ref, {r});
        out.push_back(line.str());
    }
    out.push_back(std::to_string(static_cast<int>(st)) + " " +
                  err.describe());
    return out;
}

std::vector<std::string>
fastqTranscript(std::istream &in, StreamLimits limits = {})
{
    FastqStreamReader reader(in, limits);
    std::vector<std::string> out;
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        out.push_back(r.name + "|" + r.bases + "|" +
                      qualsToAscii(r.quals));
    out.push_back(std::to_string(static_cast<int>(st)) + " " +
                  err.describe());
    return out;
}

/**
 * The readers must not depend on how the stream buffer delivers
 * bytes: records, line numbers and errors from a trickling buffer
 * equal those from one istringstream.
 */
void
expectSameWhenTrickled(const std::string &text, bool fastq,
                       StreamLimits limits = {})
{
    std::istringstream whole(text);
    TrickleBuf trickle(text);
    std::istream trickled(&trickle);
    if (fastq) {
        EXPECT_EQ(fastqTranscript(trickled, limits),
                  fastqTranscript(whole, limits))
            << text;
    } else {
        EXPECT_EQ(samTranscript(trickled, limits),
                  samTranscript(whole, limits))
            << text;
    }
}

/** Parse one SAM-lite line and expect a specific rejection. */
void
expectSamError(const std::string &line, StreamErrorCode code)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(line);
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error)
        << "accepted: " << line;
    EXPECT_EQ(err.code, code)
        << line << " rejected as " << streamErrorName(err.code);
    EXPECT_EQ(err.line, 1u);
    EXPECT_FALSE(err.describe().empty());
    expectSameWhenTrickled(line, false);
}

TEST(SamLiteStream, AcceptsValidRecordAndDecodesFlags)
{
    ReferenceGenome ref = smallRef();
    // 0x1 paired | 0x10 reverse | 0x40 first | 0x400 duplicate
    std::istringstream in(
        "r1\tCh9\t6\t60\t4M2I4M\t1105\tACGTACGTAC\tIIIIIIIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r1");
    EXPECT_EQ(r.contig, ref.findContig("Ch9"));
    EXPECT_EQ(r.pos, 5);
    EXPECT_EQ(r.cigar.toString(), "4M2I4M");
    EXPECT_TRUE(r.paired);
    EXPECT_TRUE(r.reverse);
    EXPECT_TRUE(r.firstOfPair);
    EXPECT_TRUE(r.duplicate);
    EXPECT_EQ(r.bases, "ACGTACGTAC");
    ASSERT_EQ(r.quals.size(), 10u);
    EXPECT_EQ(r.quals[0], 'I' - 33);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
    EXPECT_EQ(reader.records(), 1u);
    expectSameWhenTrickled(in.str(), false);
}

TEST(SamLiteStream, SkipsCommentsBlanksAndCrlf)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "# comment\r\n"
        "\r\n"
        "r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\r\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.bases, "ACGT"); // no trailing '\r' smuggled in
    EXPECT_EQ(r.pos, 0);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
    expectSameWhenTrickled(in.str(), false);
}

TEST(SamLiteStream, RejectsWrongFieldCount)
{
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT",
                   StreamErrorCode::WrongFieldCount);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\textra",
                   StreamErrorCode::WrongFieldCount);
    expectSamError("just-one-token",
                   StreamErrorCode::WrongFieldCount);
}

TEST(SamLiteStream, RejectsUnknownContig)
{
    expectSamError("r1\tChX\t1\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::UnknownContig);
}

TEST(SamLiteStream, RejectsMalformedNumericFields)
{
    // Whole-token parsing: partial tokens the old istringstream
    // reader silently accepted are now rejections.
    expectSamError("r1\tCh9\t5x\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t6o\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    expectSamError("r1\tCh9\t1\t60\t4M\t2f\tACGT\tIIII",
                   StreamErrorCode::MalformedField);
    // int64 overflow is malformed, not wrapped.
    expectSamError(
        "r1\tCh9\t99999999999999999999\t60\t4M\t0\tACGT\tIIII",
        StreamErrorCode::MalformedField);
}

TEST(SamLiteStream, RejectsOutOfRangePosition)
{
    expectSamError("r1\tCh9\t0\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
    expectSamError("r1\tCh9\t-4\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
    // Contig Ch9 is 100 bases; 1-based POS 101 starts past the end.
    expectSamError("r1\tCh9\t101\t60\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::PositionOutOfRange);
}

TEST(SamLiteStream, RejectsOutOfRangeMapqAndFlags)
{
    expectSamError("r1\tCh9\t1\t256\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t-1\t4M\t0\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t60\t4M\t65536\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
    expectSamError("r1\tCh9\t1\t60\t4M\t-1\tACGT\tIIII",
                   StreamErrorCode::FieldOutOfRange);
}

TEST(SamLiteStream, RejectsMalformedCigar)
{
    expectSamError("r1\tCh9\t1\t60\t4Q\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    expectSamError("r1\tCh9\t1\t60\tM4\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    expectSamError("r1\tCh9\t1\t60\t4M2\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
    // uint32 op-length overflow must not wrap around.
    expectSamError("r1\tCh9\t1\t60\t4294967296M\t0\tACGT\tIIII",
                   StreamErrorCode::MalformedCigar);
}

TEST(SamLiteStream, RejectsCigarLengthMismatch)
{
    expectSamError("r1\tCh9\t1\t60\t5M\t0\tACGT\tIIII",
                   StreamErrorCode::CigarMismatch);
    expectSamError("r1\tCh9\t1\t60\t2M1D1M\t0\tACGT\tIIII",
                   StreamErrorCode::CigarMismatch);
}

TEST(SamLiteStream, RejectsBadSequenceAndQualities)
{
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACXT\tIIII",
                   StreamErrorCode::InvalidBase);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tAC.T\tIIII",
                   StreamErrorCode::InvalidBase);
    // '\x1f' is below the Sanger range ('!' = 33).
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tII\x1fI",
                   StreamErrorCode::InvalidQuality);
    expectSamError("r1\tCh9\t1\t60\t4M\t0\tACGT\tIIIII",
                   StreamErrorCode::LengthMismatch);
}

TEST(SamLiteStream, RejectsOversizedLineWithoutBuffering)
{
    ReferenceGenome ref = smallRef();
    StreamLimits limits;
    limits.maxLineBytes = 64;
    std::string giant(1000, 'A');
    std::istringstream in("r1\tCh9\t1\t60\t4M\t0\t" + giant +
                          "\tIIII\n");
    SamLiteStreamReader reader(in, ref, limits);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
    expectSameWhenTrickled(in.str(), false, limits);
}

TEST(SamLiteStream, ErrorAnchorsToOffendingLine)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "r1\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "# interlude\n"
        "r2\tCh9\tbroken\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::MalformedField);
    EXPECT_EQ(err.line, 3u);
    EXPECT_NE(err.describe().find("line 3"), std::string::npos);
    expectSameWhenTrickled(in.str(), false);
}

TEST(FastqStream, RoundTripAndCrlf)
{
    std::istringstream in(
        "@r1\r\nACGTN\r\n+\r\nIIIII\r\n"
        "\n"
        "@r2 with description\nTTTT\n+r2\n!!!!\n");
    FastqStreamReader reader(in);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r1");
    EXPECT_EQ(r.bases, "ACGTN");
    ASSERT_EQ(r.quals.size(), 5u);
    EXPECT_EQ(r.quals[0], 'I' - 33);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(r.name, "r2 with description");
    EXPECT_EQ(r.quals[0], 0);
    EXPECT_EQ(reader.next(&r, &err), StreamStatus::End);
    EXPECT_EQ(reader.records(), 2u);
    expectSameWhenTrickled(in.str(), true);
}

void
expectFastqError(const std::string &text, StreamErrorCode code)
{
    std::istringstream in(text);
    FastqStreamReader reader(in);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error)
        << "accepted: " << text;
    EXPECT_EQ(err.code, code)
        << text << " rejected as " << streamErrorName(err.code);
    expectSameWhenTrickled(text, true);
}

TEST(FastqStream, RejectsHostileRecords)
{
    expectFastqError("r1\nACGT\n+\nIIII\n",
                     StreamErrorCode::MalformedRecord); // no '@'
    expectFastqError("@\nACGT\n+\nIIII\n",
                     StreamErrorCode::MalformedRecord); // empty name
    expectFastqError("@r1\nACGT\n",
                     StreamErrorCode::TruncatedRecord);
    expectFastqError("@r1\nACGT\nIIII\nIIII\n",
                     StreamErrorCode::MalformedRecord); // no '+'
    expectFastqError("@r1\nAC-T\n+\nIIII\n",
                     StreamErrorCode::InvalidBase);
    expectFastqError("@r1\nACGT\n+\nII\x08I\n",
                     StreamErrorCode::InvalidQuality);
    expectFastqError("@r1\nACGT\n+\nIII\n",
                     StreamErrorCode::LengthMismatch);
}

TEST(FastqStream, RejectsOversizedLine)
{
    StreamLimits limits;
    limits.maxLineBytes = 32;
    std::string giant(100, 'A');
    std::istringstream in("@r1\n" + giant + "\n+\n" +
                          std::string(100, 'I') + "\n");
    FastqStreamReader reader(in, limits);
    Read r;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::OversizedLine);
    expectSameWhenTrickled(in.str(), true, limits);
}

TEST(BatchSource, GroupsByContigInOrder)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh9\t3\t60\t4M\t0\tACGT\tIIII\n"
        "c\tCh10\t2\t60\t4M\t0\tCCCC\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    EXPECT_EQ(contig, ref.findContig("Ch9"));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].name, "a");
    EXPECT_EQ(batch[1].name, "b");
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    EXPECT_EQ(contig, ref.findContig("Ch10"));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
    EXPECT_EQ(source.records(), 3u);
    expectSameWhenTrickled(in.str(), false);
}

TEST(BatchSource, RejectsUngroupedInput)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh10\t1\t60\t4M\t0\tCCCC\tIIII\n"
        "c\tCh9\t5\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    // The Ch9 and Ch10 runs stream out fine; the error anchors to
    // the batch that would reopen an already-finished contig.
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Record);
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::UngroupedInput);
    // Poisoned after an error.
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
    expectSameWhenTrickled(in.str(), false);
}

TEST(BatchSource, PropagatesParseErrorAndPoisons)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "a\tCh9\t1\t60\t4M\t0\tACGT\tIIII\n"
        "b\tCh9\tnope\t60\t4M\t0\tACGT\tIIII\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    ASSERT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::MalformedField);
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
    expectSameWhenTrickled(in.str(), false);
}

TEST(BatchSource, EmptyStreamEndsCleanly)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in("# only a comment\n\n");
    SamLiteBatchSource source(in, ref);
    int32_t contig = -1;
    std::vector<Read> batch;
    ParseError err;
    EXPECT_EQ(source.nextBatch(&contig, &batch, &err),
              StreamStatus::End);
}

/**
 * Seeded fuzz loop: mutate a valid SAM-lite serialization with
 * random byte edits (overwrite / insert / delete / truncate) and
 * drain the streaming reader.  The property under test is "no
 * crash, no panic, no UB" -- CI runs this under ASan/UBSan; any
 * outcome other than clean Records/End/Error fails by aborting.
 */
TEST(StreamFuzz, RandomMutationsNeverCrashSamReader)
{
    ReferenceGenome ref = smallRef();
    std::vector<Read> reads;
    Rng seedRng(0xF422);
    for (int i = 0; i < 20; ++i) {
        Read r;
        r.name = "r" + std::to_string(i);
        r.contig = static_cast<int32_t>(i % 2);
        r.pos = static_cast<int64_t>(seedRng.below(60));
        r.bases = BaseSeq(10, "ACGT"[i % 4]);
        r.quals = QualSeq(10, 30);
        r.cigar = Cigar::simpleMatch(10);
        reads.push_back(std::move(r));
    }
    std::ostringstream base;
    writeSamLite(base, ref, reads);
    const std::string clean = base.str();

    Rng rng(0xD00F);
    for (int iter = 0; iter < 300; ++iter) {
        std::string mutated = clean;
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            size_t at = rng.below(mutated.size());
            switch (rng.below(4)) {
            case 0:
                mutated[at] =
                    static_cast<char>(rng.below(256));
                break;
            case 1:
                mutated.insert(
                    at, 1, static_cast<char>(rng.below(256)));
                break;
            case 2:
                mutated.erase(at, 1 + rng.below(4));
                break;
            default:
                mutated.resize(at); // truncate
                break;
            }
        }
        std::istringstream in(mutated);
        SamLiteStreamReader reader(in, ref);
        Read r;
        ParseError err;
        StreamStatus st;
        uint64_t produced = 0;
        while ((st = reader.next(&r, &err)) ==
               StreamStatus::Record) {
            r.assertValid(); // accepted records must be sound
            ++produced;
        }
        if (st == StreamStatus::Error) {
            EXPECT_NE(err.code, StreamErrorCode::None);
            EXPECT_FALSE(err.describe().empty());
        }
        EXPECT_EQ(produced, reader.records());
        expectSameWhenTrickled(mutated, false);
    }
}

/** Same property for the FASTQ reader. */
TEST(StreamFuzz, RandomMutationsNeverCrashFastqReader)
{
    std::string clean;
    for (int i = 0; i < 20; ++i) {
        clean += "@read" + std::to_string(i) + "\nACGTACGTAC\n+\n" +
                 std::string(10, char('!' + (i % 90))) + "\n";
    }
    Rng rng(0xFA57);
    for (int iter = 0; iter < 300; ++iter) {
        std::string mutated = clean;
        const int edits = 1 + static_cast<int>(rng.below(8));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            size_t at = rng.below(mutated.size());
            switch (rng.below(4)) {
            case 0:
                mutated[at] =
                    static_cast<char>(rng.below(256));
                break;
            case 1:
                mutated.insert(
                    at, 1, static_cast<char>(rng.below(256)));
                break;
            case 2:
                mutated.erase(at, 1 + rng.below(4));
                break;
            default:
                mutated.resize(at);
                break;
            }
        }
        std::istringstream in(mutated);
        FastqStreamReader reader(in);
        Read r;
        ParseError err;
        while (reader.next(&r, &err) == StreamStatus::Record) {
        }
        expectSameWhenTrickled(mutated, true);
    }
}

/**
 * Text whose line @p target starts @p before bytes ahead of the
 * scanner's first refill boundary: short filler lines lead up to
 * it, and "tail" follows on the next line.
 */
std::string
straddlingText(const std::string &target, size_t before,
               size_t *targetLine)
{
    std::string text;
    size_t lines = 0;
    const size_t fillTo = LineScanner::kBlockBytes - before;
    while (text.size() < fillTo) {
        const size_t len = std::min<size_t>(40, fillTo - text.size());
        text += std::string(len - 1, 'f') + "\n";
        ++lines;
    }
    *targetLine = lines + 1;
    return text + target + "tail\n";
}

/** Refill boundaries are invisible to lines, limits and CRLF. */
void
expectStraddle(const std::string &text, size_t targetLine,
               StreamLimits limits, const std::string *wantLine,
               StreamErrorCode wantCode)
{
    TrickleBuf trickle(text);
    std::istream trickled(&trickle);
    std::istringstream whole(text);
    for (std::istream *in : {static_cast<std::istream *>(&whole),
                             static_cast<std::istream *>(&trickled)}) {
        LineScanner scanner(*in, limits);
        std::string_view line;
        ParseError err;
        bool got;
        do {
            got = scanner.next(&line, &err);
        } while (got && scanner.lineNumber() < targetLine);
        if (wantLine) {
            ASSERT_TRUE(got) << err.describe();
            EXPECT_EQ(scanner.lineNumber(), targetLine);
            EXPECT_EQ(line, *wantLine);
            ASSERT_TRUE(scanner.next(&line, &err));
            EXPECT_EQ(line, "tail");
            EXPECT_FALSE(scanner.next(&line, &err));
            EXPECT_TRUE(err.ok());
        } else {
            ASSERT_FALSE(got);
            EXPECT_EQ(err.code, wantCode);
            EXPECT_EQ(err.line, targetLine);
        }
    }
}

TEST(LineScannerRefill, LineAtTheLimitStraddlesARefill)
{
    StreamLimits limits;
    limits.maxLineBytes = 100;
    const std::string exact(100, 'y');
    size_t lineNo = 0;
    const std::string text =
        straddlingText(exact + "\n", 50, &lineNo);
    expectStraddle(text, lineNo, limits, &exact,
                   StreamErrorCode::None);
}

TEST(LineScannerRefill, LineOneOverTheLimitStraddlesARefill)
{
    StreamLimits limits;
    limits.maxLineBytes = 100;
    for (size_t before : {1, 50, 100, 101}) {
        size_t lineNo = 0;
        const std::string text = straddlingText(
            std::string(101, 'y') + "\n", before, &lineNo);
        expectStraddle(text, lineNo, limits, nullptr,
                       StreamErrorCode::OversizedLine);
    }
}

TEST(LineScannerRefill, CrlfSplitAcrossARefill)
{
    // '\r' is the block's last byte, '\n' the next block's first.
    const std::string want(20, 'c');
    size_t lineNo = 0;
    const std::string text =
        straddlingText(want + "\r\n", want.size() + 1, &lineNo);
    ASSERT_EQ(text[LineScanner::kBlockBytes - 1], '\r');
    ASSERT_EQ(text[LineScanner::kBlockBytes], '\n');
    expectStraddle(text, lineNo, {}, &want, StreamErrorCode::None);
}

TEST(LineScannerRefill, LastLineWithoutNewline)
{
    for (const std::string &prefix :
         {std::string(), std::string(LineScanner::kBlockBytes - 3,
                                     '#') + "\n"}) {
        const std::string text = prefix + "r1\tlast";
        TrickleBuf trickle(text);
        std::istream trickled(&trickle);
        std::istringstream whole(text);
        for (std::istream *in :
             {static_cast<std::istream *>(&whole),
              static_cast<std::istream *>(&trickled)}) {
            LineScanner scanner(*in);
            std::string_view line;
            ParseError err;
            if (!prefix.empty()) {
                ASSERT_TRUE(scanner.next(&line, &err));
            }
            ASSERT_TRUE(scanner.next(&line, &err));
            EXPECT_EQ(line, "r1\tlast");
            EXPECT_FALSE(scanner.next(&line, &err));
            EXPECT_TRUE(err.ok());
            EXPECT_EQ(scanner.lineNumber(), prefix.empty() ? 1u : 2u);
        }
    }
}

/** Reads covering every field shape writeSamLite emits. */
std::vector<Read>
goldenReads()
{
    struct Shape
    {
        const char *cigar;
        bool paired, first, reverse, duplicate;
        const char *bases;
    };
    const Shape shapes[] = {
        {"*", false, false, false, false, "ACGTN"},
        {"5M", false, false, true, false, "acgtn"},
        {"2M1I2M", true, true, false, false, "ACgTa"},
        {"1S3M1D1M", true, false, true, true, "NNACG"},
        {"2S1M2I", true, true, true, true, "tttTT"},
        {"3M7D2M", false, false, false, true, "CCCCC"},
    };
    std::vector<Read> reads;
    for (size_t i = 0; i < std::size(shapes); ++i) {
        const Shape &sh = shapes[i];
        Read r;
        r.name = "g" + std::to_string(i) + (i % 2 ? "/1" : "");
        r.contig = static_cast<int32_t>(i % 2);
        r.pos = static_cast<int64_t>(i * 7);
        r.mapq = static_cast<uint8_t>(i == 0 ? 0 : 255 - i);
        if (std::string(sh.cigar) != "*")
            r.cigar = Cigar::fromString(sh.cigar);
        r.paired = sh.paired;
        r.firstOfPair = sh.first;
        r.reverse = sh.reverse;
        r.duplicate = sh.duplicate;
        r.bases = sh.bases;
        for (size_t b = 0; b < r.bases.size(); ++b)
            r.quals.push_back(
                static_cast<uint8_t>((i * 17 + b * 31) % 94));
        r.assertValid();
        reads.push_back(std::move(r));
    }
    return reads;
}

TEST(SamLiteWriter, MatchesGoldenBytes)
{
    const std::string golden =
        std::string(IRACC_GOLDEN_DIR) + "/writer.samlite";
    ReferenceGenome ref = smallRef();
    std::ostringstream os;
    writeSamLite(os, ref, goldenReads());
    const std::string got = os.str();

    if (std::getenv("IRACC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden, std::ios::binary);
        ASSERT_TRUE(out.good()) << golden;
        out << got;
        GTEST_SKIP() << "golden fixture updated: " << golden;
    }
    std::ifstream in(golden, std::ios::binary);
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    ASSERT_FALSE(want.empty())
        << "missing fixture " << golden
        << " (regenerate with IRACC_UPDATE_GOLDEN=1)";
    EXPECT_EQ(got, want);
}

TEST(SamLiteWriter, BufferedWritesEqualPerReadWrites)
{
    // Enough reads that the writer hands the stream several full
    // buffers plus a remainder.
    ReferenceGenome ref = smallRef();
    const std::vector<Read> shapes = goldenReads();
    std::vector<Read> reads;
    std::string perRead;
    for (size_t i = 0; i < 6000; ++i) {
        reads.push_back(shapes[i % shapes.size()]);
        reads.back().name += "-" + std::to_string(i);
        std::ostringstream one;
        writeSamLite(one, ref, {reads.back()});
        perRead += one.str();
    }
    ASSERT_GT(perRead.size(), 3 * (64u << 10));
    std::ostringstream all;
    writeSamLite(all, ref, reads);
    EXPECT_EQ(all.str(), perRead);
}

/**
 * The streaming bit-equality contract (docs/TESTING.md): for every
 * differential design point -- software/accelerated x pruning x
 * {1, 4} job threads, kernel-pinned and fleet points included --
 * streamed ingest must produce byte-identical SAM-lite output and
 * an identical RealignStats against the in-memory path.
 */
TEST(StreamingBitEquality, MatchesInMemoryAcrossAllVariants)
{
    difftest::DiffResult r = difftest::diffStreamingIngestSeed(1);
    EXPECT_TRUE(r.ok) << r.variant << ": " << r.detail;
}

/** Same contract over a hostile scenario workload. */
TEST(StreamingBitEquality, MatchesInMemoryOnScenarioWorkload)
{
    difftest::ScenarioWorkload wl = difftest::makeScenarioWorkload(
        difftest::ScenarioProfile::SvDense, 1, /*compact=*/true);
    difftest::DiffResult r =
        difftest::diffStreamingIngest(wl.reference, wl.reads);
    EXPECT_TRUE(r.ok) << r.variant << ": " << r.detail;
}

} // namespace
} // namespace iracc
