/**
 * @file
 * Position-based somatic variant caller (Mutect1-style stand-in)
 * and its accuracy evaluation against simulation ground truth.
 *
 * This closes the paper's end-to-end loop: INDEL realignment exists
 * to make position-based somatic calls accurate (Section II-A).
 * The example programs and tests use this caller to demonstrate
 * that indel recall/precision improves after realignment.
 */

#ifndef IRACC_VARIANT_CALLER_HH
#define IRACC_VARIANT_CALLER_HH

#include <cstdint>
#include <vector>

#include "genomics/variant.hh"
#include "variant/pileup.hh"

namespace iracc {

namespace obs {
struct Observability;
}

/** Caller thresholds. */
struct CallerParams
{
    uint32_t minDepth = 8;          ///< min covering reads
    double minAlleleFraction = 0.1; ///< min alt-read fraction
    double minIndelFraction = 0.25; ///< min indel-read fraction
    uint64_t minQualSum = 60;       ///< min summed alt quality

    /**
     * Somatic log-odds threshold (Mutect1-style): a candidate SNV
     * is emitted only when log10 L(data | allele fraction f-hat) -
     * log10 L(data | f = 0) exceeds this value.  Mutect1's default
     * tumor LOD is 6.3.
     */
    double lodThreshold = 6.3;
};

/** One called variant (type + position; alleles best-effort). */
struct CalledVariant
{
    int32_t contig = 0;
    int64_t pos = 0;
    VariantType type = VariantType::Snv;
    char altBase = 'N';     ///< SNVs only
    double alleleFraction = 0.0;
    uint32_t depth = 0;
};

/**
 * Call variants over one contig interval.  @p obs optionally adds
 * a "call variants" trace span, a `variant.call_ns`
 * histogram and `variant.calls.{snv,indel}` counters.
 */
std::vector<CalledVariant> callVariants(
    const ReferenceGenome &ref, const std::vector<Read> &reads,
    int32_t contig, int64_t start, int64_t end,
    const CallerParams &params = {},
    obs::Observability *obs = nullptr);

/** Precision/recall of a call set against simulation truth. */
struct CallAccuracy
{
    uint64_t truePositives = 0;
    uint64_t falsePositives = 0;
    uint64_t falseNegatives = 0;

    double precision() const;
    double recall() const;
    double f1() const;
};

/**
 * Score calls against truth.  A call matches a truth variant of the
 * same type within @p tolerance bp (indel placement may legally
 * shift inside repeats).
 */
CallAccuracy scoreCalls(const std::vector<CalledVariant> &calls,
                        const std::vector<Variant> &truth,
                        bool indels_only, int64_t tolerance = 5);

} // namespace iracc

#endif // IRACC_VARIANT_CALLER_HH
