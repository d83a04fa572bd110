#include "genomics/read_simulator.hh"

#include <algorithm>

#include "util/logging.hh"

namespace iracc {

ReadSimulator::ReadSimulator(ReadSimParams p, uint64_t seed)
    : params(p), rng(seed)
{
    fatal_if(p.readLength < 20 || p.readLength > 256,
             "read length %d outside supported range 20..256 "
             "(accelerator read buffers are 256 bytes)",
             p.readLength);
    fatal_if(p.coverage <= 0.0, "coverage must be positive");
}

QualSeq
ReadSimulator::sampleQuals()
{
    QualSeq quals(static_cast<size_t>(params.readLength));
    for (int32_t i = 0; i < params.readLength; ++i) {
        double frac = static_cast<double>(i) /
            static_cast<double>(params.readLength);
        double q = rng.normal(params.qualMean - params.qualDecay * frac,
                              params.qualJitter);
        q = std::clamp(q, 2.0, static_cast<double>(kMaxPhred));
        quals[static_cast<size_t>(i)] = static_cast<uint8_t>(q);
    }
    return quals;
}

void
ReadSimulator::injectErrors(BaseSeq &bases, const QualSeq &quals)
{
    for (size_t i = 0; i < bases.size(); ++i) {
        double p_err = phredToErrorProb(quals[i]);
        if (rng.chance(p_err)) {
            char wrong;
            do {
                wrong = kConcreteBases[rng.below(4)];
            } while (wrong == bases[i]);
            bases[i] = wrong;
        }
    }
}

namespace {

/**
 * Shift the single indel element of a [aM][xI|xD][bM] CIGAR by up to
 * max_shift bases while keeping read-length accounting intact.
 *
 * @return true when a shifted CIGAR was produced
 */
bool
shiftIndelCigar(const Cigar &ideal, int32_t max_shift, Rng &rng,
                Cigar &out, int32_t &shift_applied)
{
    // Locate the first indel element with Match neighbors.
    const auto &elems = ideal.elements();
    for (size_t i = 1; i + 1 < elems.size(); ++i) {
        bool is_indel = elems[i].op == CigarOp::Insert ||
                        elems[i].op == CigarOp::Delete;
        if (!is_indel || elems[i - 1].op != CigarOp::Match ||
            elems[i + 1].op != CigarOp::Match) {
            continue;
        }
        uint32_t pre = elems[i - 1].length;
        uint32_t post = elems[i + 1].length;
        bool left = rng.chance(0.5);
        uint32_t room = left ? pre - 1 : post - 1;
        if (room == 0) {
            left = !left;
            room = left ? pre - 1 : post - 1;
            if (room == 0)
                return false;
        }
        uint32_t s = 1 + static_cast<uint32_t>(rng.below(
            std::min<uint32_t>(room,
                               static_cast<uint32_t>(max_shift))));
        std::vector<CigarElem> shifted(elems.begin(), elems.end());
        if (left) {
            shifted[i - 1].length = pre - s;
            shifted[i + 1].length = post + s;
        } else {
            shifted[i - 1].length = pre + s;
            shifted[i + 1].length = post - s;
        }
        out = Cigar(std::move(shifted));
        shift_applied = left ? -static_cast<int32_t>(s)
                             : static_cast<int32_t>(s);
        return true;
    }
    return false;
}

} // anonymous namespace

SimulatedReads
ReadSimulator::simulateContig(const ReferenceGenome &ref,
                              int32_t contig_idx,
                              const std::vector<Variant> &variants)
{
    const Contig &ctg = ref.contig(contig_idx);
    const int64_t ctg_len = ctg.length();
    const int32_t rlen = params.readLength;
    fatal_if(ctg_len < rlen * 4,
             "contig %s too short (%lld bp) for %d bp reads",
             ctg.name.c_str(), static_cast<long long>(ctg_len), rlen);

    DonorContig donor(ctg.seq, variants);
    const auto &sorted_vars = donor.variants();

    const int64_t num_reads = static_cast<int64_t>(
        params.coverage * static_cast<double>(ctg_len) /
        static_cast<double>(rlen));

    // Pre-pick Zipf depth hotspots; the count scales with contig
    // length so hotspot density is scale-invariant.
    int32_t num_hotspots = std::max<int32_t>(
        8, static_cast<int32_t>(ctg_len / 3000));
    num_hotspots = std::min(num_hotspots, params.hotspotCount * 8);
    std::vector<int64_t> hotspots;
    for (int32_t i = 0; i < num_hotspots; ++i) {
        hotspots.push_back(rng.below(
            static_cast<uint64_t>(ctg_len - rlen)));
    }

    SimulatedReads out;
    out.reads.reserve(static_cast<size_t>(num_reads));

    // Emit one read sampled at reference-space position `start`.
    auto emit_read = [&](int64_t start, std::string name,
                         bool reverse) -> Read * {
        // Which variants does the fragment span (with flank)?
        const Variant *spanned_indel = nullptr;
        bool spans_any = false;
        for (const Variant &v : sorted_vars) {
            if (v.pos < start + 5)
                continue;
            if (v.pos >= start + rlen - 5)
                break;
            spans_any = true;
            if (v.isIndel() && !spanned_indel)
                spanned_indel = &v;
        }

        double carrier_prob = 0.0;
        if (spans_any) {
            carrier_prob = spanned_indel
                ? spanned_indel->alleleFraction
                : 0.5; // SNV-only span: heterozygous default
        }
        bool carrier = spans_any && rng.chance(carrier_prob);

        Read read;
        read.name = std::move(name);
        read.contig = contig_idx;
        read.reverse = reverse;
        read.mapq = rng.chance(0.95)
            ? 60 : static_cast<uint8_t>(rng.range(20, 59));
        QualSeq quals = sampleQuals();
        BaseSeq bases;

        if (carrier) {
            int64_t donor_start = donor.refToDonor(start);
            if (donor_start + rlen >
                static_cast<int64_t>(donor.seq().size())) {
                donor_start =
                    static_cast<int64_t>(donor.seq().size()) - rlen;
            }
            bases = donor.seq().substr(
                static_cast<size_t>(donor_start),
                static_cast<size_t>(rlen));

            int64_t true_pos = 0;
            Cigar ideal;
            donor.idealAlignment(donor_start, rlen, true_pos, ideal);
            read.truePos = true_pos;
            read.pos = true_pos;
            read.cigar = ideal;

            if (ideal.hasIndel()) {
                ++out.indelSpanningReads;
                double artifact = rng.uniform();
                if (artifact < params.indelShiftProb) {
                    Cigar shifted;
                    int32_t s = 0;
                    if (shiftIndelCigar(ideal, params.maxIndelShift,
                                        rng, shifted, s)) {
                        read.cigar = shifted;
                        ++out.misalignedIndelReads;
                    }
                } else if (artifact < params.indelShiftProb +
                                      params.indelDropProb) {
                    // Primary aligner missed the indel: pure-match
                    // alignment smears the event into mismatches.
                    read.cigar = Cigar::simpleMatch(
                        static_cast<uint32_t>(rlen));
                    ++out.misalignedIndelReads;
                }
            }
        } else {
            bases = ctg.seq.substr(static_cast<size_t>(start),
                                   static_cast<size_t>(rlen));
            read.truePos = start;
            read.pos = start;
            read.cigar = Cigar::simpleMatch(
                static_cast<uint32_t>(rlen));
        }

        injectErrors(bases, quals);
        read.setSequence(bases, quals);
        read.assertValid();
        out.reads.push_back(std::move(read));
        return &out.reads.back();
    };

    // Sample a reference-space start position with Zipf hotspots.
    auto sample_start = [&](int64_t span) -> int64_t {
        int64_t start;
        if (!hotspots.empty() && rng.chance(params.hotspotFraction)) {
            uint64_t rank = rng.zipf(hotspots.size(),
                                     params.zipfExponent);
            int64_t center = hotspots[rank - 1];
            start = center + rng.range(-rlen / 2, rlen / 2);
        } else {
            start = static_cast<int64_t>(
                rng.below(static_cast<uint64_t>(ctg_len - rlen)));
        }
        return std::clamp<int64_t>(start, 0, ctg_len - span - 1);
    };

    if (!params.pairedEnd) {
        for (int64_t r = 0; r < num_reads; ++r) {
            emit_read(sample_start(rlen),
                      ctg.name + ":r" + std::to_string(r),
                      rng.chance(params.reverseProb));
        }
        return out;
    }

    // Paired-end: each fragment yields R1 at its 5' end and a
    // reverse-flagged R2 at its 3' end (Illumina FR orientation).
    const int64_t num_fragments = num_reads / 2;
    for (int64_t f = 0; f < num_fragments; ++f) {
        int64_t frag_len = static_cast<int64_t>(
            rng.normal(params.fragmentMean, params.fragmentStddev));
        frag_len = std::clamp<int64_t>(frag_len, 2 * rlen,
                                       ctg_len - 2);
        int64_t start = sample_start(frag_len);
        std::string base_name =
            ctg.name + ":f" + std::to_string(f);

        Read *r1 = emit_read(start, base_name + "/1", false);
        int64_t r1_pos = r1->pos;
        Read *r2 = emit_read(start + frag_len - rlen,
                             base_name + "/2", true);
        // emit_read may reallocate the vector; re-resolve R1.
        Read &first = out.reads[out.reads.size() - 2];
        Read &second = *r2;
        first.paired = second.paired = true;
        first.firstOfPair = true;
        second.firstOfPair = false;
        first.matePos = second.pos;
        second.matePos = r1_pos;
    }
    return out;
}

} // namespace iracc
