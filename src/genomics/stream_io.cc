#include "genomics/stream_io.hh"

#include <algorithm>
#include <cstring>
#include <istream>

#include "genomics/base.hh"
#include "genomics/scan_kernels.hh"
#include "util/argparse.hh"
#include "util/logging.hh"

namespace iracc {

const char *
streamErrorName(StreamErrorCode code)
{
    switch (code) {
      case StreamErrorCode::None:            return "ok";
      case StreamErrorCode::OversizedLine:   return "oversized-line";
      case StreamErrorCode::TruncatedRecord: return "truncated-record";
      case StreamErrorCode::MalformedRecord: return "malformed-record";
      case StreamErrorCode::WrongFieldCount: return "wrong-field-count";
      case StreamErrorCode::MalformedField:  return "malformed-field";
      case StreamErrorCode::FieldOutOfRange: return "field-out-of-range";
      case StreamErrorCode::MalformedCigar:  return "malformed-cigar";
      case StreamErrorCode::CigarMismatch:   return "cigar-mismatch";
      case StreamErrorCode::InvalidBase:     return "invalid-base";
      case StreamErrorCode::InvalidQuality:  return "invalid-quality";
      case StreamErrorCode::LengthMismatch:  return "length-mismatch";
      case StreamErrorCode::UnknownContig:   return "unknown-contig";
      case StreamErrorCode::PositionOutOfRange:
        return "position-out-of-range";
      case StreamErrorCode::UngroupedInput:  return "ungrouped-input";
    }
    panic("invalid StreamErrorCode %d", static_cast<int>(code));
}

std::string
ParseError::describe() const
{
    std::string out = streamErrorName(code);
    if (line > 0) {
        out += ": line ";
        out += std::to_string(line);
    }
    if (!message.empty()) {
        out += ": ";
        out += message;
    }
    return out;
}

namespace {

void
setError(ParseError *err, StreamErrorCode code, uint64_t line,
         std::string message)
{
    if (!err)
        return;
    err->code = code;
    err->line = line;
    err->message = std::move(message);
}

} // namespace

LineScanner::LineScanner(std::istream &is, StreamLimits limits)
    : in(is), lim(limits), block(kBlockBytes)
{
}

bool
LineScanner::refill()
{
    head = 0;
    tail = static_cast<size_t>(std::max<std::streamsize>(
        in.rdbuf()->sgetn(block.data(), kBlockBytes), 0));
    return tail > 0;
}

bool
LineScanner::next(std::string_view *line, ParseError *err)
{
    // A line inside one block is returned in place; one that
    // straddles a refill is assembled in carry.  Either way an
    // oversized line is rejected at its (maxLineBytes + 1)th byte,
    // never buffered whole -- the reader's memory bound must hold
    // against hostile input too.
    carry.clear();
    bool started = false;
    for (;;) {
        if (head == tail && !refill()) {
            if (!started)
                return false;
            *line = carry; // last line without a newline
            break;
        }
        if (!started) {
            ++lineno;
            started = true;
        }
        const char *start = block.data() + head;
        const size_t avail = tail - head;
        const char *nl =
            static_cast<const char *>(std::memchr(start, '\n', avail));
        const size_t len = nl ? static_cast<size_t>(nl - start) : avail;
        if (carry.size() + len > lim.maxLineBytes) {
            // Consume through the first byte past the limit, as a
            // byte-at-a-time scan stops there.
            head += lim.maxLineBytes - carry.size() + 1;
            setError(err, StreamErrorCode::OversizedLine, lineno,
                     "line exceeds " +
                         std::to_string(lim.maxLineBytes) + " bytes");
            return false;
        }
        if (nl) {
            head += len + 1;
            if (carry.empty()) {
                *line = std::string_view(start, len);
            } else {
                carry.append(start, len);
                *line = carry;
            }
            break;
        }
        carry.append(start, len);
        head = tail;
    }
    if (!line->empty() && line->back() == '\r')
        line->remove_suffix(1);
    return true;
}

FastqStreamReader::FastqStreamReader(std::istream &is,
                                     StreamLimits limits)
    : scanner(is, limits)
{
}

StreamStatus
FastqStreamReader::next(Read *out, ParseError *err)
{
    std::string_view view;
    ParseError scanErr;
    // Tolerate blank lines between records (batch-reader parity).
    do {
        if (!scanner.next(&view, &scanErr)) {
            if (!scanErr.ok()) {
                if (err)
                    *err = scanErr;
                return StreamStatus::Error;
            }
            return StreamStatus::End;
        }
    } while (view.empty());
    const std::string header(view);

    if (header[0] != '@' || header.size() < 2) {
        setError(err, StreamErrorCode::MalformedRecord,
                 scanner.lineNumber(),
                 "expected '@name' FASTQ header");
        return StreamStatus::Error;
    }

    // The scanner's view dies at its next call: copy each line.
    std::string bases, plus, quals;
    for (std::string *l : {&bases, &plus, &quals}) {
        if (!scanner.next(&view, &scanErr)) {
            if (!scanErr.ok()) {
                if (err)
                    *err = scanErr;
            } else {
                setError(err, StreamErrorCode::TruncatedRecord,
                         scanner.lineNumber(),
                         "EOF inside FASTQ record '" + header + "'");
            }
            return StreamStatus::Error;
        }
        l->assign(view);
    }
    if (plus.empty() || plus[0] != '+') {
        setError(err, StreamErrorCode::MalformedRecord,
                 scanner.lineNumber() - 1,
                 "expected '+' FASTQ separator");
        return StreamStatus::Error;
    }
    if (!isValidSequence(bases)) {
        setError(err, StreamErrorCode::InvalidBase,
                 scanner.lineNumber() - 2,
                 "base outside A/C/G/T/N in '" + header + "'");
        return StreamStatus::Error;
    }
    QualSeq qualSeq;
    if (!tryAsciiToQuals(quals, &qualSeq)) {
        setError(err, StreamErrorCode::InvalidQuality,
                 scanner.lineNumber(),
                 "quality char outside Sanger range in '" + header +
                     "'");
        return StreamStatus::Error;
    }
    if (bases.size() != qualSeq.size()) {
        setError(err, StreamErrorCode::LengthMismatch,
                 scanner.lineNumber(),
                 std::to_string(bases.size()) + " bases but " +
                     std::to_string(qualSeq.size()) + " qualities");
        return StreamStatus::Error;
    }

    Read r;
    r.name = header.substr(1);
    r.setSequence(bases, qualSeq);
    r.cigar = Cigar();
    *out = std::move(r);
    ++count;
    return StreamStatus::Record;
}

SamLiteStreamReader::SamLiteStreamReader(std::istream &is,
                                         const ReferenceGenome &ref,
                                         StreamLimits limits)
    : scanner(is, limits), genome(ref)
{
}

namespace {

/** Field separators of SAM-lite (what the batch reader accepted). */
bool
isFieldSpace(char c)
{
    return c == '\t' || c == ' ';
}

/**
 * parseInt64's whole-token rules (strtoll base 0) for a field.  A
 * plain decimal without sign or leading zero, short enough that it
 * cannot overflow, is parsed in place; everything else -- signs,
 * octal and hex prefixes, overflow, junk -- goes through
 * parseInt64 itself.
 */
bool
parseIntField(std::string_view text, int64_t *out)
{
    if (text == "0") {
        *out = 0;
        return true;
    }
    if (!text.empty() && text.size() <= 18 && text[0] >= '1' &&
        text[0] <= '9') {
        int64_t v = 0;
        size_t i = 0;
        for (; i < text.size() && text[i] >= '0' && text[i] <= '9';
             ++i)
            v = v * 10 + (text[i] - '0');
        if (i == text.size()) {
            *out = v;
            return true;
        }
    }
    return parseInt64(std::string(text), out);
}

} // namespace

StreamStatus
SamLiteStreamReader::next(Read *out, ParseError *err)
{
    std::string_view line;
    ParseError scanErr;
    do {
        if (!scanner.next(&line, &scanErr)) {
            if (!scanErr.ok()) {
                if (err)
                    *err = scanErr;
                return StreamStatus::Error;
            }
            return StreamStatus::End;
        }
    } while (line.empty() || line[0] == '#');

    const uint64_t lineno = scanner.lineNumber();
    const SimdKernel kernel = activeSimdKernel();
    // Split on runs of separators; fields past the eighth are only
    // counted, for the error message.  A field ends at the next
    // separator: the kernel finds the next byte <= 0x20, and any
    // such byte other than a separator stays inside the field.
    std::string_view f[8];
    size_t fields = 0;
    const char *p = line.data();
    const size_t n = line.size();
    for (size_t i = 0; i < n;) {
        if (isFieldSpace(p[i])) {
            ++i;
            continue;
        }
        const size_t start = i;
        for (;;) {
            i = findLowByte(p, n, i, kernel);
            if (i == n || isFieldSpace(p[i]))
                break;
            ++i;
        }
        if (fields < 8)
            f[fields] = line.substr(start, i - start);
        ++fields;
    }
    if (fields != 8) {
        setError(err, StreamErrorCode::WrongFieldCount, lineno,
                 "expected 8 fields, found " +
                     std::to_string(fields));
        return StreamStatus::Error;
    }
    auto text = [&f](size_t i) { return std::string(f[i]); };

    int32_t contig = lastContig;
    if (contig < 0 || genome.contig(contig).name != f[1]) {
        contig = genome.findContig(text(1));
        if (contig < 0) {
            setError(err, StreamErrorCode::UnknownContig, lineno,
                     "contig '" + text(1) +
                         "' not in the reference");
            return StreamStatus::Error;
        }
        lastContig = contig;
    }
    const int64_t contigLen =
        static_cast<int64_t>(genome.contig(contig).seq.size());

    int64_t pos1 = 0;
    if (!parseIntField(f[2], &pos1)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 "POS '" + text(2) + "' is not a whole integer");
        return StreamStatus::Error;
    }
    if (pos1 < 1 || pos1 - 1 >= contigLen) {
        setError(err, StreamErrorCode::PositionOutOfRange, lineno,
                 "POS " + text(2) + " outside contig '" + text(1) +
                     "' (length " + std::to_string(contigLen) + ")");
        return StreamStatus::Error;
    }

    int64_t mapq = 0;
    if (!parseIntField(f[3], &mapq)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 "MAPQ '" + text(3) + "' is not a whole integer");
        return StreamStatus::Error;
    }
    if (mapq < 0 || mapq > 255) {
        setError(err, StreamErrorCode::FieldOutOfRange, lineno,
                 "MAPQ " + text(3) + " outside [0, 255]");
        return StreamStatus::Error;
    }

    Cigar cigar;
    if (!Cigar::tryFromString(f[4], &cigar)) {
        setError(err, StreamErrorCode::MalformedCigar, lineno,
                 "malformed CIGAR '" + text(4) + "'");
        return StreamStatus::Error;
    }

    int64_t flags = 0;
    if (!parseIntField(f[5], &flags)) {
        setError(err, StreamErrorCode::MalformedField, lineno,
                 "FLAG '" + text(5) + "' is not a whole integer");
        return StreamStatus::Error;
    }
    if (flags < 0 || flags > 0xFFFF) {
        setError(err, StreamErrorCode::FieldOutOfRange, lineno,
                 "FLAG " + text(5) + " outside [0, 65535]");
        return StreamStatus::Error;
    }

    const std::string_view bases = f[6];
    const std::string_view qualText = f[7];
    if (findInvalidBase(bases.data(), bases.size(), kernel) !=
        bases.size()) {
        setError(err, StreamErrorCode::InvalidBase, lineno,
                 "base outside A/C/G/T/N in read '" + text(0) + "'");
        return StreamStatus::Error;
    }
    if (findInvalidQualityChar(qualText.data(), qualText.size(),
                               kernel) != qualText.size()) {
        setError(err, StreamErrorCode::InvalidQuality, lineno,
                 "quality char outside Sanger range in read '" +
                     text(0) + "'");
        return StreamStatus::Error;
    }
    if (qualText.size() != bases.size()) {
        setError(err, StreamErrorCode::LengthMismatch, lineno,
                 std::to_string(bases.size()) + " bases but " +
                     std::to_string(qualText.size()) + " qualities");
        return StreamStatus::Error;
    }
    if (!cigar.empty() && cigar.readLength() != bases.size()) {
        setError(err, StreamErrorCode::CigarMismatch, lineno,
                 "CIGAR '" + text(4) + "' consumes " +
                     std::to_string(cigar.readLength()) +
                     " bases, sequence has " +
                     std::to_string(bases.size()));
        return StreamStatus::Error;
    }

    // Every invariant Read::assertValid checks holds now, so the
    // record is written into *out in place; its bases and qualities
    // go to the arena's current block (fields are never empty).
    out->name.assign(f[0]);
    uint8_t *bytes = nullptr;
    out->seq = arena.carve(bases.size(), &bytes);
    std::memcpy(bytes, bases.data(), bases.size());
    decodeQualityChars(qualText.data(), qualText.size(),
                       bytes + bases.size(), kernel);
    out->contig = contig;
    out->pos = pos1 - 1;
    out->cigar = std::move(cigar);
    out->mapq = static_cast<uint8_t>(mapq);
    out->reverse = (flags & 0x10) != 0;
    out->duplicate = (flags & 0x400) != 0;
    out->paired = (flags & 0x1) != 0;
    out->firstOfPair = (flags & 0x40) != 0;
    out->matePos = -1;
    out->truePos = -1;
    ++count;
    return StreamStatus::Record;
}

SamLiteBatchSource::SamLiteBatchSource(std::istream &is,
                                       const ReferenceGenome &ref,
                                       StreamLimits limits)
    : reader(is, ref, limits)
{
}

StreamStatus
SamLiteBatchSource::nextBatch(int32_t *contig,
                              std::vector<Read> *reads,
                              ParseError *err)
{
    reads->clear();
    if (finished)
        return StreamStatus::End;

    // Each record is parsed straight into a new last element, which
    // is dropped again on End or Error.
    auto pull = [&]() {
        const StreamStatus st = reader.next(&reads->emplace_back(), err);
        if (st != StreamStatus::Record)
            reads->pop_back();
        return st;
    };

    if (havePending) {
        reads->push_back(std::move(pending));
        havePending = false;
    } else {
        const StreamStatus st = pull();
        if (st != StreamStatus::Record) {
            finished = true;
            return st;
        }
    }

    const int32_t batchContig = reads->front().contig;
    if (!seenContigs.insert(batchContig).second) {
        finished = true;
        reads->clear();
        setError(err, StreamErrorCode::UngroupedInput, 0,
                 "reads for contig id " +
                     std::to_string(batchContig) +
                     " are not adjacent; streaming input must be "
                     "contig-grouped");
        return StreamStatus::Error;
    }

    for (;;) {
        const StreamStatus st = pull();
        if (st == StreamStatus::End)
            break;
        if (st == StreamStatus::Error) {
            finished = true;
            return st;
        }
        if (reads->back().contig != batchContig) {
            pending = std::move(reads->back());
            reads->pop_back();
            havePending = true;
            break;
        }
    }
    *contig = batchContig;
    return StreamStatus::Record;
}

} // namespace iracc
