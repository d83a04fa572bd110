/**
 * @file
 * Base Quality Score Recalibration (BQSR) -- the final stage of the
 * alignment-refinement pipeline (paper Figure 1).
 *
 * Sequencers report per-base Phred qualities that are systematically
 * mis-calibrated.  BQSR builds an empirical error model by counting
 * reference mismatches in aligned bases, bucketed by covariates --
 * reported quality, machine cycle (position in read), and
 * dinucleotide context (the preceding read base, the covariate set
 * GATK's recalibrator uses) -- then rewrites each base's quality to
 * the empirically observed error rate.  Known variant sites must be
 * excluded from the counts so real variation is not mistaken for
 * sequencing error.
 */

#ifndef IRACC_REFINE_BQSR_HH
#define IRACC_REFINE_BQSR_HH

#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "genomics/variant.hh"

namespace iracc {

/** One covariate bucket's mismatch counts. */
struct BqsrCell
{
    uint64_t observations = 0;
    uint64_t mismatches = 0;

    /** Empirical quality with a +1/+2 smoothing prior. */
    uint8_t empiricalQuality() const;
};

/**
 * The recalibration table: reported quality x cycle bucket x
 * dinucleotide context.
 */
class BqsrTable
{
  public:
    /** Dinucleotide contexts: preceding base A/C/G/T, or none
     *  (first base of the read / preceding N). */
    static constexpr uint32_t kContexts = 5;

    /** @param cycle_buckets read positions folded into this many
     *         machine-cycle bins */
    explicit BqsrTable(uint32_t cycle_buckets = 8);

    /**
     * Accumulate mismatch evidence from aligned (M) bases of
     * non-duplicate reads, skipping known variant positions.
     */
    void observe(const ReferenceGenome &ref,
                 const std::vector<Read> &reads,
                 const std::vector<Variant> &known_sites);

    /** Rewrite the quality scores of every read in place. */
    void recalibrate(std::vector<Read> &reads) const;

    const BqsrCell &cell(uint8_t reported_q, uint32_t cycle_bucket,
                         uint32_t context) const;

    uint32_t cycleBuckets() const { return buckets; }
    uint64_t totalObservations() const;

    /** Context id for the base at read_pos (0..3 = preceding
     *  concrete base, 4 = none/first). */
    static uint32_t contextOf(std::string_view bases, size_t read_pos);

  private:
    uint32_t buckets;
    std::vector<BqsrCell> cells; // (q, bucket, context) row-major

    uint32_t bucketOf(size_t read_pos, size_t read_len) const;
    size_t index(uint8_t q, uint32_t bucket,
                 uint32_t context) const;
};

} // namespace iracc

#endif // IRACC_REFINE_BQSR_HH
