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
 * tests/golden/.  The record decoder and the writer are swept over
 * every supported SIMD kernel, which must agree on every Read,
 * ParseError and output byte.
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
#include "util/simd_kernel.hh"

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

/** Every field of a Read, the in-memory-only ones included. */
std::string
dumpRead(const Read &r)
{
    std::string out = r.name + "|" + std::to_string(r.contig) + "|" +
                      std::to_string(r.pos) + "|" +
                      std::to_string(r.mapq) + "|" +
                      r.cigar.toString() + "|" + r.bases + "|";
    for (uint8_t q : r.quals)
        out += std::to_string(q) + ",";
    out += "|" + std::to_string(r.reverse) +
           std::to_string(r.duplicate) + std::to_string(r.paired) +
           std::to_string(r.firstOfPair) + "|" +
           std::to_string(r.matePos) + "|" + std::to_string(r.truePos);
    return out;
}

/**
 * One line per pulled record (all pulled into the same reused
 * Read), then the final status and error.
 */
std::vector<std::string>
samTranscript(std::istream &in, StreamLimits limits = {})
{
    ReferenceGenome ref = smallRef();
    SamLiteStreamReader reader(in, ref, limits);
    std::vector<std::string> out;
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        out.push_back(dumpRead(r));
    out.push_back(std::to_string(static_cast<int>(st)) + " " +
                  err.describe());
    return out;
}

/** samTranscript of @p text under a pinned SIMD kernel. */
std::vector<std::string>
samTranscriptWith(SimdKernel kernel, const std::string &text)
{
    ScopedSimdKernel pin(kernel);
    std::istringstream in(text);
    return samTranscript(in);
}

/**
 * Every supported kernel yields the scalar kernel's transcript:
 * the same Reads and the same ParseError (code, line, message).
 * @return the scalar transcript.
 */
std::vector<std::string>
expectSameUnderEveryKernel(const std::string &text)
{
    const std::vector<std::string> want =
        samTranscriptWith(SimdKernel::Scalar, text);
    for (SimdKernel kernel : supportedSimdKernels()) {
        EXPECT_EQ(samTranscriptWith(kernel, text), want)
            << simdKernelName(kernel) << ": " << text;
    }
    return want;
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
    // Neither may the read consumption (which would wrap to 1 and
    // match the one base) nor a merged run (which would wrap to 1M).
    expectSamError("r1\tCh9\t1\t60\t4294967295M2I\t0\tA\tI",
                   StreamErrorCode::MalformedCigar);
    expectSamError("r1\tCh9\t1\t60\t4294967295M2M\t0\tA\tI",
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

TEST(SamLiteStream, ParsesInPlaceAndLeavesReadUntouchedOnError)
{
    ReferenceGenome ref = smallRef();
    std::istringstream in(
        "r1\tCh9\t6\t60\t4M\t16\tACGT\tIIII\n"
        "r2\tCh9\t7\t60\t4M\t0\tACGX\tIIII\n");
    SamLiteStreamReader reader(in, ref);
    Read r;
    r.name = "a-much-longer-stale-name-from-an-earlier-record";
    r.bases = BaseSeq(80, 'G');
    r.quals = QualSeq(80, 7);
    r.cigar = Cigar::fromString("40M2I38M");
    r.matePos = 1234;
    r.truePos = 5678;
    r.duplicate = true;
    ParseError err;
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Record);
    EXPECT_EQ(dumpRead(r),
              "r1|0|5|60|4M|ACGT|40,40,40,40,|1000|-1|-1");
    // A rejected record leaves the destination exactly as it was.
    const std::string before = dumpRead(r);
    ASSERT_EQ(reader.next(&r, &err), StreamStatus::Error);
    EXPECT_EQ(err.code, StreamErrorCode::InvalidBase);
    EXPECT_EQ(dumpRead(r), before);
}

/**
 * Kernel sweep of the record decoder: every read length up to 100
 * (so 8-byte words and 32-byte vectors are crossed, with and
 * without tails), valid and with one bad base or quality at each
 * index, gives the same Reads and ParseErrors under every kernel.
 */
TEST(SamLiteKernels, EveryLengthAndBadIndexAgrees)
{
    Rng rng(0x5CA7);
    const char badBases[] = {'X', '.', '\x01', '\x7f', '\x80', '\xff',
                             'U', '-', '\x1f', '\xc3'};
    const char badQuals[] = {'\x7f', '\x1f', '\x80', '\xff', '\x01',
                             '\xde', '\x0b', '\x9a'};
    for (size_t len = 1; len <= 100; ++len) {
        std::string bases(len, 'A'), quals(len, 'I');
        for (size_t i = 0; i < len; ++i) {
            bases[i] = "ACGTNacgtn"[rng.below(10)];
            quals[i] = static_cast<char>('!' + rng.below(94));
        }
        const std::string head = "read-" + std::to_string(len) +
                                 "\tCh9\t3\t17\t" +
                                 std::to_string(len) + "M\t1\t";
        const std::vector<std::string> ok =
            expectSameUnderEveryKernel(head + bases + "\t" + quals +
                                       "\n");
        ASSERT_EQ(ok.size(), 2u) << ok.back();
        for (size_t k = 0; k < len; ++k) {
            std::string b = bases, q = quals;
            b[k] = badBases[k % std::size(badBases)];
            q[k] = badQuals[k % std::size(badQuals)];
            const std::vector<std::string> badBase =
                expectSameUnderEveryKernel(head + b + "\t" + quals);
            ASSERT_EQ(badBase.size(), 1u);
            EXPECT_EQ(badBase[0].rfind("2 invalid-base: line 1", 0), 0u)
                << badBase[0];
            const std::vector<std::string> badQual =
                expectSameUnderEveryKernel(head + bases + "\t" + q);
            ASSERT_EQ(badQual.size(), 1u);
            EXPECT_EQ(badQual[0].rfind("2 invalid-quality: line 1", 0),
                      0u)
                << badQual[0];
        }
    }
}

/**
 * Control and high bytes inside fields: only ' ' and '\t' split
 * fields, so any other byte <= 0x20 (and every byte >= 0x7f) stays
 * inside its field under every kernel -- a name keeps it, the
 * contig, POS, bases and qualities reject it with the same error.
 */
TEST(SamLiteKernels, LowAndHighBytesStayInsideFields)
{
    const std::string name(40, 'n');
    const std::string bases(45, 'C');
    const std::string quals(45, '?');
    std::vector<int> probes;
    for (int b = 0x01; b <= 0x1f; ++b)
        probes.push_back(b);
    for (int b = 0x7f; b <= 0xff; ++b)
        probes.push_back(b);
    for (int b : probes) {
        if (b == '\t' || b == '\n')
            continue; // the field and line separators
        const char c = static_cast<char>(b);
        for (size_t at : {size_t(0), size_t(7), size_t(31), size_t(32),
                          size_t(39)}) {
            std::string nm = name, bs = bases, qs = quals;
            nm[at] = c;
            bs[at] = c;
            qs[at] = c;
            const std::vector<std::string> inName =
                expectSameUnderEveryKernel(nm + "\tCh10\t2\t60\t*\t0\t" +
                                           bases + "\t" + quals + "\n");
            ASSERT_EQ(inName.size(), 2u) << b << " " << inName.back();
            EXPECT_EQ(inName[0].substr(0, name.size()), nm);
            expectSameUnderEveryKernel(name + "\tCh" + std::string(1, c) +
                                       "9\t2\t60\t*\t0\t" + bases +
                                       "\t" + quals);
            expectSameUnderEveryKernel(name + "\tCh9\t2" +
                                       std::string(1, c) +
                                       "\t60\t*\t0\t" + bases + "\t" +
                                       quals);
            const std::vector<std::string> inBases =
                expectSameUnderEveryKernel(name + "\tCh9\t1\t60\t*\t0\t" +
                                           bs + "\t" + quals);
            EXPECT_EQ(inBases[0].rfind("2 invalid-base", 0), 0u)
                << b << " " << inBases[0];
            const std::vector<std::string> inQuals =
                expectSameUnderEveryKernel(name + "\tCh9\t1\t60\t*\t0\t" +
                                           bases + "\t" + qs);
            EXPECT_EQ(inQuals[0].rfind("2 invalid-quality", 0), 0u)
                << b << " " << inQuals[0];
        }
    }
}

/** Runs of spaces and tabs split fields under every kernel. */
TEST(SamLiteKernels, SpaceAndTabRunsSplitFields)
{
    const std::string bases(40, 'T'), quals(40, '#');
    for (const char *sep : {" ", "\t", " \t ", "   ", "\t\t"}) {
        std::string line = "  spaced-read-name";
        for (const std::string &field :
             {std::string("Ch10"), std::string("4"), std::string("9"),
              std::string("40M"), std::string("0"), bases, quals})
            line += sep + field;
        const std::vector<std::string> got =
            expectSameUnderEveryKernel(line + sep + "\n");
        ASSERT_EQ(got.size(), 2u) << sep << " " << got.back();
        EXPECT_EQ(got[0].rfind("spaced-read-name|1|3|9|40M|" + bases, 0),
                  0u)
            << got[0];
    }
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
 * Every mutation also yields the same transcript under every SIMD
 * kernel.  The 10-base corpus keeps base and quality fields in the
 * kernels' short paths; the 33-100-base corpus runs their vector
 * bodies and tails.
 */
TEST(StreamFuzz, RandomMutationsNeverCrashSamReader)
{
    ReferenceGenome ref = smallRef();
    auto corpus = [&ref](size_t minLen, size_t lenStep) {
        std::vector<Read> reads;
        Rng seedRng(0xF422);
        for (int i = 0; i < 20; ++i) {
            const size_t len = minLen + lenStep * static_cast<size_t>(i);
            Read r;
            r.name = "r" + std::to_string(i);
            r.contig = static_cast<int32_t>(i % 2);
            r.pos = static_cast<int64_t>(seedRng.below(60));
            r.bases = BaseSeq(len, "ACGT"[i % 4]);
            r.quals = QualSeq(len, 30);
            r.cigar = Cigar::simpleMatch(static_cast<uint32_t>(len));
            reads.push_back(std::move(r));
        }
        std::ostringstream base;
        writeSamLite(base, ref, reads);
        return base.str();
    };

    for (const std::string &clean : {corpus(10, 0), corpus(33, 3)}) {
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
            expectSameUnderEveryKernel(mutated);
        }
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

/**
 * Reads covering every field shape writeSamLite emits.  The last
 * three are 33-100 bases long, so the quality encoder's vector
 * bodies run, not just its short-field path.
 */
std::vector<Read>
goldenReads()
{
    struct Shape
    {
        const char *cigar;
        bool paired, first, reverse, duplicate;
        const char *bases;
    };
    const std::string b33 = std::string(11, 'A') + "CCGGTTNNacg" +
                            std::string(11, 't');
    const std::string b64 = std::string(32, 'G') + std::string(32, 'c');
    std::string b100;
    for (size_t i = 0; i < 100; ++i)
        b100 += "ACGTNacgtn"[(i * 7) % 10];
    const Shape shapes[] = {
        {"*", false, false, false, false, "ACGTN"},
        {"5M", false, false, true, false, "acgtn"},
        {"2M1I2M", true, true, false, false, "ACgTa"},
        {"1S3M1D1M", true, false, true, true, "NNACG"},
        {"2S1M2I", true, true, true, true, "tttTT"},
        {"3M7D2M", false, false, false, true, "CCCCC"},
        {"33M", false, false, false, false, b33.c_str()},
        {"20M4I40M", true, false, false, false, b64.c_str()},
        {"5S90M2D5M", true, true, true, false, b100.c_str()},
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
 * A score above kMaxPhred panics naming the first bad score, under
 * every kernel and at every vector and word position -- a larger
 * bad score later in the same read must not be the one named.
 */
TEST(SamLiteWriterDeathTest, PhredAboveMaxNamesTheFirstBadScore)
{
    ReferenceGenome ref = smallRef();
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel pin(kernel);
        for (size_t len : {size_t(9), size_t(100)}) {
            for (size_t k : {size_t(0), size_t(1), size_t(7),
                             size_t(8), size_t(31), size_t(32),
                             size_t(33), size_t(63), size_t(99)}) {
                if (k >= len)
                    continue;
                Read r;
                r.name = "bad";
                r.bases = BaseSeq(len, 'A');
                r.quals = QualSeq(len, 30);
                r.quals[k] = 94;
                if (k + 1 < len)
                    r.quals[len - 1] = 200;
                std::ostringstream os;
                EXPECT_DEATH(writeSamLite(os, ref, {r}),
                             "Phred score 94 exceeds max 93")
                    << simdKernelName(kernel) << " len=" << len
                    << " k=" << k;
            }
        }
    }
}

/**
 * write -> read -> write is byte-identical under every kernel, and
 * every kernel writes and reads the same bytes and Reads.
 */
TEST(SamLiteWriter, RoundTripIsByteIdenticalUnderEveryKernel)
{
    ReferenceGenome ref = smallRef();
    std::vector<Read> reads = goldenReads();
    Rng rng(0xB17E);
    for (size_t len = 1; len <= 100; ++len) {
        Read r;
        r.name = "rt" + std::to_string(len);
        r.contig = static_cast<int32_t>(len % 2);
        r.pos = static_cast<int64_t>(rng.below(40));
        r.cigar = Cigar::simpleMatch(static_cast<uint32_t>(len));
        for (size_t i = 0; i < len; ++i) {
            r.bases += "ACGTNacgtn"[rng.below(10)];
            r.quals.push_back(
                static_cast<uint8_t>(rng.below(kMaxPhred + 1)));
        }
        reads.push_back(std::move(r));
    }
    std::string want;
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel pin(kernel);
        std::ostringstream first;
        writeSamLite(first, ref, reads);
        std::istringstream in(first.str());
        const std::vector<Read> back = readSamLite(in, ref);
        ASSERT_EQ(back.size(), reads.size());
        for (size_t i = 0; i < reads.size(); ++i) {
            Read expect = reads[i];
            // SAM-lite drops FLAG 0x40 on unpaired reads.
            expect.firstOfPair = expect.paired && expect.firstOfPair;
            EXPECT_EQ(dumpRead(back[i]), dumpRead(expect))
                << simdKernelName(kernel);
        }
        std::ostringstream second;
        writeSamLite(second, ref, back);
        EXPECT_EQ(second.str(), first.str()) << simdKernelName(kernel);
        if (want.empty())
            want = first.str();
        EXPECT_EQ(first.str(), want) << simdKernelName(kernel);
    }
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
