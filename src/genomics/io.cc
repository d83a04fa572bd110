#include "genomics/io.hh"

#include <charconv>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <string_view>

#include "genomics/stream_io.hh"
#include "util/logging.hh"

namespace iracc {

void
writeFasta(std::ostream &os, const ReferenceGenome &ref)
{
    for (size_t i = 0; i < ref.numContigs(); ++i) {
        const Contig &c = ref.contig(static_cast<int32_t>(i));
        os << '>' << c.name << '\n';
        for (size_t off = 0; off < c.seq.size(); off += 60)
            os << c.seq.substr(off, 60) << '\n';
    }
}

ReferenceGenome
readFasta(std::istream &is)
{
    ReferenceGenome ref;
    std::string line, name, seq;
    auto flush = [&] {
        if (!name.empty())
            ref.addContig(name, seq);
        name.clear();
        seq.clear();
    };
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (line[0] == '>') {
            flush();
            // Contig name is the first whitespace-delimited token.
            size_t end = line.find_first_of(" \t", 1);
            name = line.substr(1, end == std::string::npos
                                  ? std::string::npos : end - 1);
            fatal_if(name.empty(), "FASTA record with empty name");
        } else {
            fatal_if(name.empty(),
                     "FASTA sequence data before any header");
            seq += line;
        }
    }
    flush();
    return ref;
}

void
writeFastq(std::ostream &os, const std::vector<Read> &reads)
{
    for (const Read &r : reads) {
        os << '@' << r.name << '\n'
           << r.bases << '\n'
           << "+\n"
           << qualsToAscii(r.quals) << '\n';
    }
}

std::vector<Read>
readFastq(std::istream &is)
{
    // Batch convenience over the validating streaming reader, so
    // legacy callers get the same strict rejection (with the
    // machine-readable code in the message) instead of the old
    // trusting parse.
    std::vector<Read> reads;
    FastqStreamReader reader(is);
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        reads.push_back(std::move(r));
    fatal_if(st == StreamStatus::Error, "FASTQ parse failed: %s",
             err.describe().c_str());
    return reads;
}

namespace {

/** Longest decimal of an int64 (with sign) or a uint32. */
constexpr size_t kMaxIntChars = 20;

char *
put(char *p, std::string_view text)
{
    std::memcpy(p, text.data(), text.size());
    return p + text.size();
}

char *
putInt(char *p, int64_t v)
{
    // Callers reserve kMaxIntChars for every integer.
    return std::to_chars(p, p + kMaxIntChars, v).ptr;
}

} // namespace

void
writeSamLite(std::ostream &os, const ReferenceGenome &ref,
             const std::vector<Read> &reads)
{
    // Lines are formatted into one buffer with a bump pointer and
    // handed to the stream in writes of at least kFlushBytes.
    constexpr size_t kFlushBytes = 64u << 10;
    size_t cap = 2 * kFlushBytes;
    std::unique_ptr<char[]> buf(new char[cap]);
    size_t used = 0;
    auto flush = [&] {
        os.write(buf.get(), static_cast<std::streamsize>(used));
        used = 0;
    };
    for (const Read &r : reads) {
        const std::string &contigName = ref.contig(r.contig).name;
        // Upper bound of the line: the strings, POS, MAPQ, FLAG, each
        // CIGAR element (or '*'), seven tabs and the newline.
        const size_t need = r.name.size() + contigName.size() +
                            r.bases.size() + r.quals.size() +
                            3 * kMaxIntChars +
                            (r.cigar.size() + 1) * (kMaxIntChars + 1) +
                            8;
        if (used + need > cap) {
            flush();
            if (need > cap) {
                cap = need;
                buf.reset(new char[cap]);
            }
        }
        const int flags = (r.reverse ? 0x10 : 0) |
                          (r.duplicate ? 0x400 : 0) |
                          (r.paired ? 0x1 : 0) |
                          (r.paired && r.firstOfPair ? 0x40 : 0) |
                          (r.paired && !r.firstOfPair ? 0x80 : 0);
        char *p = buf.get() + used;
        p = put(p, r.name);
        *p++ = '\t';
        p = put(p, contigName);
        *p++ = '\t';
        p = putInt(p, r.pos + 1);
        *p++ = '\t';
        p = putInt(p, r.mapq);
        *p++ = '\t';
        if (r.cigar.empty())
            *p++ = '*';
        for (const CigarElem &e : r.cigar.elements()) {
            p = putInt(p, e.length);
            *p++ = cigarOpChar(e.op);
        }
        *p++ = '\t';
        p = putInt(p, flags);
        *p++ = '\t';
        p = put(p, r.bases);
        *p++ = '\t';
        encodeQuals(r.quals.data(), r.quals.size(), p);
        p += r.quals.size();
        *p++ = '\n';
        used = static_cast<size_t>(p - buf.get());
        if (used >= kFlushBytes)
            flush();
    }
    if (used > 0)
        flush();
}

namespace {

/**
 * Bytes left to read in @p is, or 0 when it cannot tell (a stream
 * that does not seek, such as a pipe).  The read position is left
 * where it was.
 */
uint64_t
streamBytesLeft(std::istream &is)
{
    if (!is)
        return 0;
    const std::streampos here = is.tellg();
    if (here == std::streampos(-1))
        return 0;
    is.seekg(0, std::ios::end);
    const std::streampos end = is.tellg();
    is.clear();
    is.seekg(here);
    if (!is || end == std::streampos(-1) || end < here)
        return 0;
    return static_cast<uint64_t>(end - here);
}

/**
 * How many records @p bytes of SAM-lite hold at most, judged by the
 * line of its record @p sample (reads of one run are about as long
 * as each other), with an eighth to spare.
 */
size_t
samLiteRecordsIn(uint64_t bytes, const Read &sample,
                 const ReferenceGenome &ref)
{
    // At most the line writeSamLite lays out for the sample: name,
    // contig, bases and qualities, two bytes or more per CIGAR
    // element, a digit or more per number and eight separators.
    // Erring long costs address space, not memory: the vector
    // touches only what it fills.  Erring short copies it once
    // more, so an eighth is added for lines longer than the sample.
    const size_t line = sample.name.size() +
                        ref.contig(sample.contig).name.size() +
                        2 * sample.bases.size() +
                        2 * sample.cigar.elements().size() + 11;
    const size_t records = static_cast<size_t>(bytes / line) + 1;
    return records + records / 8;
}

} // namespace

std::vector<Read>
readSamLite(std::istream &is, const ReferenceGenome &ref)
{
    // The old implementation parsed with istringstream >>, which
    // accepts partial tokens ("12x" -> 12) and lets malformed
    // numerics cascade into panics deeper in the pipeline.  Parse
    // through the validating streaming reader instead, straight
    // into a new last element that End or Error drops again.
    // The stream's size, where it can tell, sizes the vector once
    // the first record shows how long a line is.
    std::vector<Read> reads;
    const uint64_t bytes = streamBytesLeft(is);
    SamLiteStreamReader reader(is, ref);
    ParseError err;
    StreamStatus st = reader.next(&reads.emplace_back(), &err);
    if (st == StreamStatus::Record && bytes != 0)
        reads.reserve(samLiteRecordsIn(bytes, reads.front(), ref));
    while (st == StreamStatus::Record)
        st = reader.next(&reads.emplace_back(), &err);
    reads.pop_back();
    fatal_if(st == StreamStatus::Error, "SAM-lite parse failed: %s",
             err.describe().c_str());
    return reads;
}

} // namespace iracc
