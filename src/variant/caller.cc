#include "variant/caller.hh"

#include <algorithm>
#include <cmath>

#include "obs/obs.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Mutect1-style somatic log-odds score: how much better the column
 * is explained by an alt allele at its observed fraction than by
 * "no variant, only sequencing error".
 */
double
somaticLod(const PileupColumn &col, int ref_idx, int alt_idx)
{
    uint32_t alt_count = col.baseCount[static_cast<size_t>(alt_idx)];
    if (col.depth == 0 || alt_count == 0)
        return 0.0;
    double f = static_cast<double>(alt_count) /
               static_cast<double>(col.depth);

    double lod = 0.0;
    for (const PileupObservation &obs : col.observations) {
        double e = std::pow(10.0,
                            -static_cast<double>(obs.qual) / 10.0);
        // P(observed base | true allele): (1 - e) on a match,
        // e/3 on each specific miscall.
        auto p_given = [&](int allele) {
            return obs.baseIdx == allele ? 1.0 - e : e / 3.0;
        };
        double p_ref = p_given(ref_idx);
        double p_alt = p_given(alt_idx);
        double p_m = f * p_alt + (1.0 - f) * p_ref; // variant model
        lod += std::log10(p_m) - std::log10(p_ref);
    }
    return lod;
}

} // anonymous namespace

std::vector<CalledVariant>
callVariants(const ReferenceGenome &ref, const std::vector<Read> &reads,
             int32_t contig, int64_t start, int64_t end,
             const CallerParams &params, obs::Observability *obsv)
{
    obs::ScopedSpan span(obsv, "call variants", "variant",
                         "variant.call_ns");
    std::vector<PileupColumn> cols = buildPileup(reads, contig, start,
                                                 end);
    const Contig &ctg = ref.contig(contig);
    std::vector<CalledVariant> calls;

    for (size_t i = 0; i < cols.size(); ++i) {
        const PileupColumn &col = cols[i];
        int64_t pos = start + static_cast<int64_t>(i);
        if (pos >= ctg.length())
            break;

        // --- SNV calling -----------------------------------------
        // As in Mutect1, the likelihood model is evaluated at
        // every sufficiently covered column (the LOD is the
        // primary statistic), with the count/quality gates applied
        // as hard filters on emission.
        if (col.depth >= params.minDepth) {
            char ref_base = ctg.seq[static_cast<size_t>(pos)];
            if (ref_base != 'N') {
                int ref_idx = baseIndex(ref_base);
                for (int b = 0; b < 4; ++b) {
                    if (b == ref_idx)
                        continue;
                    uint32_t alt = col.baseCount[
                        static_cast<size_t>(b)];
                    if (alt == 0)
                        continue;
                    double lod = somaticLod(col, ref_idx, b);
                    double frac = static_cast<double>(alt) /
                                  static_cast<double>(col.depth);
                    if (lod >= params.lodThreshold &&
                        frac >= params.minAlleleFraction &&
                        col.baseQualSum[static_cast<size_t>(b)] >=
                            params.minQualSum) {
                        CalledVariant call;
                        call.contig = contig;
                        call.pos = pos;
                        call.type = VariantType::Snv;
                        call.altBase = kConcreteBases[b];
                        call.alleleFraction = frac;
                        call.depth = col.depth;
                        calls.push_back(call);
                    }
                }
            }
        }

        // --- Indel calling ---------------------------------------
        uint32_t cov = std::max(col.depth, col.indelStarts());
        if (cov >= params.minDepth && col.indelStarts() > 0) {
            double frac = static_cast<double>(col.indelStarts()) /
                          static_cast<double>(cov);
            if (frac >= params.minIndelFraction) {
                CalledVariant call;
                call.contig = contig;
                call.pos = pos;
                call.type = col.insStarts >= col.delStarts
                    ? VariantType::Insertion
                    : VariantType::Deletion;
                call.alleleFraction = frac;
                call.depth = cov;
                calls.push_back(call);
            }
        }
    }

    if (obsv && obsv->metrics) {
        uint64_t snvs = 0;
        for (const CalledVariant &c : calls)
            snvs += c.type == VariantType::Snv ? 1 : 0;
        obsv->metrics->counter("variant.calls.snv").add(snvs);
        obsv->metrics->counter("variant.calls.indel")
            .add(calls.size() - snvs);
    }
    return calls;
}

double
CallAccuracy::precision() const
{
    uint64_t called = truePositives + falsePositives;
    return called ? static_cast<double>(truePositives) /
                        static_cast<double>(called)
                  : 0.0;
}

double
CallAccuracy::recall() const
{
    uint64_t truth = truePositives + falseNegatives;
    return truth ? static_cast<double>(truePositives) /
                       static_cast<double>(truth)
                 : 0.0;
}

double
CallAccuracy::f1() const
{
    double p = precision(), r = recall();
    return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

CallAccuracy
scoreCalls(const std::vector<CalledVariant> &calls,
           const std::vector<Variant> &truth, bool indels_only,
           int64_t tolerance)
{
    CallAccuracy acc;
    std::vector<bool> truth_hit(truth.size(), false);
    std::vector<bool> call_used(calls.size(), false);

    auto type_matches = [](VariantType a, VariantType b) {
        return a == b;
    };

    for (size_t t = 0; t < truth.size(); ++t) {
        const Variant &v = truth[t];
        if (indels_only && !v.isIndel())
            continue;
        for (size_t c = 0; c < calls.size(); ++c) {
            if (call_used[c])
                continue;
            const CalledVariant &call = calls[c];
            if (call.contig != v.contig ||
                !type_matches(call.type, v.type)) {
                continue;
            }
            if (std::llabs(call.pos - v.pos) <= tolerance) {
                truth_hit[t] = true;
                call_used[c] = true;
                break;
            }
        }
        if (truth_hit[t])
            ++acc.truePositives;
        else
            ++acc.falseNegatives;
    }
    for (size_t c = 0; c < calls.size(); ++c) {
        if (indels_only && calls[c].type == VariantType::Snv)
            continue;
        if (!call_used[c])
            ++acc.falsePositives;
    }
    return acc;
}

} // namespace iracc
