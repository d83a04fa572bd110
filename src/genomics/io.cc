#include "genomics/io.hh"

#include <charconv>
#include <istream>
#include <ostream>

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

/** Append the decimal form of @p v. */
void
appendInt(std::string &out, int64_t v)
{
    char digits[24];
    const auto res = std::to_chars(digits, digits + sizeof(digits), v);
    out.append(digits, res.ptr);
}

} // namespace

void
writeSamLite(std::ostream &os, const ReferenceGenome &ref,
             const std::vector<Read> &reads)
{
    // Lines are formatted into one reused buffer and handed to the
    // stream in writes of at least kFlushBytes.
    constexpr size_t kFlushBytes = 64u << 10;
    std::string buf;
    buf.reserve(2 * kFlushBytes);
    for (const Read &r : reads) {
        const int flags = (r.reverse ? 0x10 : 0) |
                          (r.duplicate ? 0x400 : 0) |
                          (r.paired ? 0x1 : 0) |
                          (r.paired && r.firstOfPair ? 0x40 : 0) |
                          (r.paired && !r.firstOfPair ? 0x80 : 0);
        buf += r.name;
        buf += '\t';
        buf += ref.contig(r.contig).name;
        buf += '\t';
        appendInt(buf, r.pos + 1);
        buf += '\t';
        appendInt(buf, r.mapq);
        buf += '\t';
        if (r.cigar.empty())
            buf += '*';
        for (const CigarElem &e : r.cigar.elements()) {
            appendInt(buf, e.length);
            buf += cigarOpChar(e.op);
        }
        buf += '\t';
        appendInt(buf, flags);
        buf += '\t';
        buf += r.bases;
        buf += '\t';
        const size_t q0 = buf.size();
        buf.resize(q0 + r.quals.size());
        for (size_t i = 0; i < r.quals.size(); ++i) {
            const uint8_t q = r.quals[i];
            panic_if(q > kMaxPhred, "Phred score %u exceeds max %u",
                     q, kMaxPhred);
            buf[q0 + i] = static_cast<char>(q + 33);
        }
        buf += '\n';
        if (buf.size() >= kFlushBytes) {
            os.write(buf.data(),
                     static_cast<std::streamsize>(buf.size()));
            buf.clear();
        }
    }
    if (!buf.empty())
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::vector<Read>
readSamLite(std::istream &is, const ReferenceGenome &ref)
{
    // The old implementation parsed with istringstream >>, which
    // accepts partial tokens ("12x" -> 12) and lets malformed
    // numerics cascade into panics deeper in the pipeline.  Parse
    // through the validating streaming reader instead.
    std::vector<Read> reads;
    SamLiteStreamReader reader(is, ref);
    Read r;
    ParseError err;
    StreamStatus st;
    while ((st = reader.next(&r, &err)) == StreamStatus::Record)
        reads.push_back(std::move(r));
    fatal_if(st == StreamStatus::Error, "SAM-lite parse failed: %s",
             err.describe().c_str());
    return reads;
}

} // namespace iracc
