#include "genomics/read.hh"

#include "util/logging.hh"

namespace iracc {

bool
Read::overlaps(int32_t c, int64_t start, int64_t end) const
{
    if (contig != c)
        return false;
    int64_t read_start = pos;
    int64_t read_end = endPos();
    bool start_inside = read_start >= start && read_start < end;
    // endPos() is exclusive; the last covered base is endPos() - 1.
    bool end_inside = read_end - 1 >= start && read_end - 1 < end;
    // Also treat reads spanning the whole interval as overlapping.
    bool spans = read_start < start && read_end > end;
    return start_inside || end_inside || spans;
}

void
Read::assertValid() const
{
    // Bases and qualities have one length by construction
    // (SeqSlice).
    panic_if(!isValidSequence(bases()),
             "read %s: invalid base characters", name.c_str());
    if (!cigar.empty()) {
        panic_if(cigar.readLength() != length(),
                 "read %s: CIGAR %s consumes %u read bases, have %zu",
                 name.c_str(), cigar.toString().c_str(),
                 cigar.readLength(), length());
    }
    panic_if(pos < 0, "read %s: negative position %lld", name.c_str(),
             static_cast<long long>(pos));
}

} // namespace iracc
