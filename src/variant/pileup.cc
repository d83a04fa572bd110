#include "variant/pileup.hh"

#include "util/logging.hh"

namespace iracc {

std::vector<PileupColumn>
buildPileup(const std::vector<Read> &reads, int32_t contig,
            int64_t start, int64_t end)
{
    panic_if(start > end, "bad pileup interval");
    std::vector<PileupColumn> cols(static_cast<size_t>(end - start));

    auto col_at = [&](int64_t ref_pos) -> PileupColumn * {
        if (ref_pos < start || ref_pos >= end)
            return nullptr;
        return &cols[static_cast<size_t>(ref_pos - start)];
    };

    for (const Read &read : reads) {
        if (read.contig != contig || read.duplicate ||
            read.cigar.empty()) {
            continue;
        }
        if (read.endPos() <= start || read.pos >= end)
            continue;

        const std::string_view bases = read.bases();
        const std::span<const uint8_t> quals = read.quals();
        int64_t ref_pos = read.pos;
        size_t read_off = 0;
        for (const auto &e : read.cigar.elements()) {
            switch (e.op) {
              case CigarOp::Match:
                for (uint32_t x = 0; x < e.length; ++x) {
                    PileupColumn *col = col_at(ref_pos + x);
                    if (!col)
                        continue;
                    char b = bases[read_off + x];
                    if (b == 'N')
                        continue;
                    int idx = baseIndex(b);
                    col->baseQualSum[static_cast<size_t>(idx)] +=
                        quals[read_off + x];
                    ++col->baseCount[static_cast<size_t>(idx)];
                    col->observations.push_back(
                        {static_cast<uint8_t>(idx),
                         quals[read_off + x]});
                    ++col->depth;
                }
                ref_pos += e.length;
                read_off += e.length;
                break;
              case CigarOp::Insert:
                if (PileupColumn *col = col_at(ref_pos - 1))
                    ++col->insStarts;
                read_off += e.length;
                break;
              case CigarOp::Delete:
                if (PileupColumn *col = col_at(ref_pos - 1))
                    ++col->delStarts;
                ref_pos += e.length;
                break;
              case CigarOp::SoftClip:
                read_off += e.length;
                break;
            }
        }
    }
    return cols;
}

} // namespace iracc
