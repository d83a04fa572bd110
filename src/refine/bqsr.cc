#include "refine/bqsr.hh"

#include <cmath>

#include "genomics/base.hh"
#include "genomics/quality.hh"
#include "util/logging.hh"

namespace iracc {

uint8_t
BqsrCell::empiricalQuality() const
{
    // Smoothed empirical error: (mismatches + 1) / (obs + 2) keeps
    // empty buckets neutral and avoids zero probabilities.
    double p = (static_cast<double>(mismatches) + 1.0) /
               (static_cast<double>(observations) + 2.0);
    return errorProbToPhred(p);
}

BqsrTable::BqsrTable(uint32_t cycle_buckets)
    : buckets(cycle_buckets),
      cells(static_cast<size_t>(kMaxPhred + 1) * cycle_buckets *
            kContexts)
{
    panic_if(buckets == 0, "BQSR needs >= 1 cycle bucket");
}

uint32_t
BqsrTable::bucketOf(size_t read_pos, size_t read_len) const
{
    if (read_len == 0)
        return 0;
    uint32_t b = static_cast<uint32_t>(read_pos * buckets / read_len);
    return b >= buckets ? buckets - 1 : b;
}

size_t
BqsrTable::index(uint8_t q, uint32_t bucket, uint32_t context) const
{
    panic_if(q > kMaxPhred, "quality %u out of range", q);
    panic_if(bucket >= buckets, "cycle bucket out of range");
    panic_if(context >= kContexts, "context out of range");
    return (static_cast<size_t>(q) * buckets + bucket) * kContexts +
           context;
}

uint32_t
BqsrTable::contextOf(std::string_view bases, size_t read_pos)
{
    if (read_pos == 0)
        return kContexts - 1;
    char prev = bases[read_pos - 1];
    if (prev == 'N')
        return kContexts - 1;
    return static_cast<uint32_t>(baseIndex(prev));
}

void
BqsrTable::observe(const ReferenceGenome &ref,
                   const std::vector<Read> &reads,
                   const std::vector<Variant> &known_sites)
{
    // Known variant sites are excluded: real variation is not
    // sequencing error.
    std::unordered_set<int64_t> skip;
    for (const Variant &v : known_sites) {
        // Key on (contig, pos) packed; contigs are small ints.
        skip.insert((static_cast<int64_t>(v.contig) << 40) | v.pos);
        if (v.type == VariantType::Deletion) {
            for (int32_t d = 1; d <= v.delLength; ++d)
                skip.insert((static_cast<int64_t>(v.contig) << 40) |
                            (v.pos + d));
        }
    }

    for (const Read &read : reads) {
        if (read.duplicate || read.cigar.empty())
            continue;
        const Contig &ctg = ref.contig(read.contig);
        const std::string_view bases = read.bases();
        int64_t ref_pos = read.pos;
        size_t read_off = 0;
        for (const auto &e : read.cigar.elements()) {
            switch (e.op) {
              case CigarOp::Match:
                for (uint32_t x = 0; x < e.length; ++x) {
                    int64_t rp = ref_pos + x;
                    if (rp < 0 || rp >= ctg.length())
                        continue;
                    int64_t key =
                        (static_cast<int64_t>(read.contig) << 40) |
                        rp;
                    if (skip.count(key))
                        continue;
                    size_t ro = read_off + x;
                    uint8_t q = read.quals()[ro];
                    BqsrCell &c = cells[index(
                        q, bucketOf(ro, read.length()),
                        contextOf(bases, ro))];
                    ++c.observations;
                    if (bases[ro] !=
                        ctg.seq[static_cast<size_t>(rp)]) {
                        ++c.mismatches;
                    }
                }
                ref_pos += e.length;
                read_off += e.length;
                break;
              case CigarOp::Insert:
              case CigarOp::SoftClip:
                read_off += e.length;
                break;
              case CigarOp::Delete:
                ref_pos += e.length;
                break;
            }
        }
    }
}

void
BqsrTable::recalibrate(std::vector<Read> &reads) const
{
    QualSeq quals;
    for (Read &read : reads) {
        const std::span<const uint8_t> old = read.quals();
        quals.assign(old.begin(), old.end());
        for (size_t i = 0; i < quals.size(); ++i) {
            const BqsrCell &c = cells[index(
                old[i], bucketOf(i, read.length()),
                contextOf(read.bases(), i))];
            if (c.observations >= 16)
                quals[i] = c.empiricalQuality();
        }
        read.setSequence(read.bases(), quals);
    }
}

const BqsrCell &
BqsrTable::cell(uint8_t reported_q, uint32_t cycle_bucket,
                uint32_t context) const
{
    return cells[index(reported_q, cycle_bucket, context)];
}

uint64_t
BqsrTable::totalObservations() const
{
    uint64_t total = 0;
    for (const auto &c : cells)
        total += c.observations;
    return total;
}

} // namespace iracc
