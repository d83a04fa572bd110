#include "align/aligner.hh"

#include <algorithm>
#include <map>

#include "obs/obs.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace iracc {

ReadAligner::ReadAligner(const ReferenceGenome &r, AlignerParams p)
    : ref(r), params(p)
{
    fatal_if(params.seedLength < 8, "seed length too small");
    for (size_t c = 0; c < ref.numContigs(); ++c) {
        indexes.push_back(makeSeedIndex(
            params.indexKind,
            ref.contig(static_cast<int32_t>(c)).seq));
    }
}

bool
ReadAligner::alignRead(Read &read)
{
    const size_t rlen = read.bases.size();
    if (rlen < params.seedLength)
        return false;

    // --- SMEM generation: maximal exact seed matches -------------
    struct Seed
    {
        int32_t contig;
        size_t queryOffset;
        int64_t matchLen;
        SaRange range;
    };
    Timer t;
    std::vector<Seed> seeds;
    for (size_t c = 0; c < indexes.size(); ++c) {
        for (size_t off = 0; off + params.seedLength <= rlen;
             off += params.seedStride) {
            SaRange range;
            int64_t len = indexes[c]->longestPrefixMatch(read.bases,
                                                         off, range);
            if (len >= static_cast<int64_t>(params.seedLength) &&
                !range.empty() &&
                range.count() <= params.maxSeedHits) {
                seeds.push_back({static_cast<int32_t>(c), off, len,
                                 range});
            }
        }
    }
    times.smemSeconds += t.seconds();

    if (seeds.empty())
        return false;

    // --- Suffix-array lookup: hit positions, diagonal voting -----
    t.restart();
    // Diagonal = reference position minus query offset; the most
    // supported (contig, diagonal) bucket locates the read.
    std::map<std::pair<int32_t, int64_t>, int64_t> votes;
    for (const Seed &seed : seeds) {
        for (int64_t r = seed.range.lo; r < seed.range.hi; ++r) {
            int64_t pos = indexes[static_cast<size_t>(seed.contig)]
                              ->position(r);
            int64_t diag = pos -
                static_cast<int64_t>(seed.queryOffset);
            votes[{seed.contig, diag}] += seed.matchLen;
        }
    }
    int32_t best_contig = 0;
    int64_t best_diag = 0;
    int64_t best_votes = -1;
    for (const auto &[key, v] : votes) {
        if (v > best_votes) {
            best_votes = v;
            best_contig = key.first;
            best_diag = key.second;
        }
    }
    times.lookupSeconds += t.seconds();

    // --- Seed extension: banded Smith-Waterman around the hit ----
    t.restart();
    const Contig &ctg = ref.contig(best_contig);
    int64_t win_lo = std::max<int64_t>(0,
                                       best_diag - params.windowFlank);
    int64_t win_hi = std::min<int64_t>(
        ctg.length(),
        best_diag + static_cast<int64_t>(rlen) + params.windowFlank);
    if (win_hi - win_lo < static_cast<int64_t>(rlen)) {
        times.extendSeconds += t.seconds();
        return false;
    }
    BaseSeq window = ref.slice(best_contig, win_lo, win_hi);
    SwAlignment aln = smithWaterman(window, read.bases,
                                    params.swParams);
    times.extendSeconds += t.seconds();

    if (aln.score <= 0)
        return false;

    // --- Output: finalize the record ------------------------------
    t.restart();
    read.contig = best_contig;
    read.pos = win_lo + aln.windowOffset;
    read.cigar = aln.cigar;
    // Crude mapping quality: perfect score maps to 60.
    int32_t perfect = static_cast<int32_t>(rlen) *
                      params.swParams.matchScore;
    double frac = static_cast<double>(aln.score) /
                  static_cast<double>(perfect);
    read.mapq = static_cast<uint8_t>(
        std::clamp(frac * 60.0, 0.0, 60.0));
    read.assertValid();
    times.outputSeconds += t.seconds();
    return true;
}

uint32_t
ReadAligner::alignAll(std::vector<Read> &reads)
{
    const AlignerStageTimes before = times;
    obs::ScopedSpan span(obsv, "align batch", "align");
    uint32_t aligned = 0;
    for (Read &read : reads)
        aligned += alignRead(read) ? 1 : 0;
    const double elapsed = span.close();
    const double stage_delta = times.smemSeconds +
        times.lookupSeconds + times.extendSeconds +
        times.outputSeconds -
        (before.smemSeconds + before.lookupSeconds +
         before.extendSeconds + before.outputSeconds);
    if (elapsed > stage_delta)
        times.otherSeconds += elapsed - stage_delta;

    if (obsv && obsv->metrics) {
        obs::MetricsRegistry &reg = *obsv->metrics;
        auto record = [&reg](const char *name, double seconds) {
            reg.histogram(name).record(obs::nanos(seconds));
        };
        record("align.stage.smem_ns",
               times.smemSeconds - before.smemSeconds);
        record("align.stage.lookup_ns",
               times.lookupSeconds - before.lookupSeconds);
        record("align.stage.extend_ns",
               times.extendSeconds - before.extendSeconds);
        record("align.stage.output_ns",
               times.outputSeconds - before.outputSeconds);
        record("align.stage.other_ns",
               times.otherSeconds - before.otherSeconds);
        reg.counter("align.reads.total").add(reads.size());
        reg.counter("align.reads.aligned").add(aligned);
    }
    return aligned;
}

} // namespace iracc
