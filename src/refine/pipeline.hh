/**
 * @file
 * The alignment-refinement pipeline driver (paper Figure 1, stage
 * 2): Sort -> Duplicate Removal -> INDEL Realignment -> Base
 * Quality Score Recalibration, with per-stage wall-clock timing.
 * The IR stage is pluggable so the pipeline can run on top of the
 * software realigner or the accelerated system; the per-stage
 * timings drive the Figure 2/3 benches.
 */

#ifndef IRACC_REFINE_PIPELINE_HH
#define IRACC_REFINE_PIPELINE_HH

#include <functional>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "genomics/variant.hh"
#include "realign/realigner.hh"

namespace iracc {

namespace obs {
struct Observability;
}

/** Per-stage seconds of one refinement run. */
struct RefineStageTimes
{
    double sortSeconds = 0.0;
    double dupMarkSeconds = 0.0;
    double realignSeconds = 0.0;
    double bqsrSeconds = 0.0;

    double
    total() const
    {
        return sortSeconds + dupMarkSeconds + realignSeconds +
               bqsrSeconds;
    }

    /** Fraction of refinement time spent in INDEL realignment
     *  (the Figure 3 metric). */
    double
    irFraction() const
    {
        double t = total();
        return t > 0.0 ? realignSeconds / t : 0.0;
    }
};

/** Result of one refinement-pipeline run over a contig. */
struct RefineResult
{
    RefineStageTimes times;
    uint64_t duplicatesMarked = 0;
    RealignStats realign;
};

/**
 * The realignment stage as a callable: mutates the read set and
 * returns statistics.  Allows software and FPGA backends.
 */
using RealignStage = std::function<RealignStats(
    const ReferenceGenome &, int32_t, std::vector<Read> &)>;

/**
 * Genome-level realignment stage: takes the whole (multi-contig)
 * read set.  Callers typically wrap a core RealignSession (this
 * library cannot depend on src/core), which realigns every contig
 * concurrently -- sort, duplicate marking and BQSR all key on the
 * contig, so the surrounding stages are contig-order safe.
 */
using GenomeRealignStage = std::function<RealignStats(
    const ReferenceGenome &, std::vector<Read> &)>;

/**
 * Run the full refinement pipeline on one contig's reads.
 *
 * @param ref         reference genome
 * @param contig      contig id
 * @param reads       read set, mutated in place
 * @param realigner   the IR stage implementation
 * @param known_sites known variants masked during BQSR
 * @param obs         optional host observability: per-stage trace
 *                    spans plus `refine.stage.<stage>_ns`
 *                    histograms and a `refine.duplicates_marked`
 *                    counter (null = uninstrumented)
 */
RefineResult runRefinementPipeline(
    const ReferenceGenome &ref, int32_t contig,
    std::vector<Read> &reads, const RealignStage &realigner,
    const std::vector<Variant> &known_sites,
    obs::Observability *obs = nullptr);

/**
 * Genome-wide refinement: one Sort -> DupMark -> IR -> BQSR pass
 * over the complete read set, with the IR stage free to process
 * contigs in parallel (see core/realign_job.hh).  @p obs as above.
 */
RefineResult runRefinementPipeline(
    const ReferenceGenome &ref, std::vector<Read> &reads,
    const GenomeRealignStage &realigner,
    const std::vector<Variant> &known_sites,
    obs::Observability *obs = nullptr);

} // namespace iracc

#endif // IRACC_REFINE_PIPELINE_HH
