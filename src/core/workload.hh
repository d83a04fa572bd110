/**
 * @file
 * Workload synthesis: the NA12878-substitute data sets every bench,
 * test, and example runs on.
 *
 * A workload is a scaled 22-autosome genome (GRCh37-proportional
 * lengths), a truth variant set per chromosome, and an aligned read
 * set produced by the read simulator with the primary-alignment
 * artifact model.  Everything is deterministic in (seed, scale,
 * coverage).
 */

#ifndef IRACC_CORE_WORKLOAD_HH
#define IRACC_CORE_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "genomics/karyotype.hh"
#include "genomics/mutator.hh"
#include "genomics/read.hh"
#include "genomics/read_simulator.hh"
#include "genomics/reference.hh"
#include "genomics/variant.hh"

namespace iracc {

/** Workload-synthesis parameters. */
struct WorkloadParams
{
    uint64_t seed = 0xADA12878;

    /** Chromosome length divisor vs real GRCh37 (see karyotype). */
    int64_t scaleDivisor = 1000;

    /** Minimum scaled chromosome length. */
    int64_t minContigLength = 20000;

    /** Chromosomes to build (1-based numbers); empty = all 22. */
    std::vector<int> chromosomes;

    /** Sequencing depth (paper data: 60-65x; default lighter). */
    double coverage = 30.0;

    /**
     * Depth of the matched-normal sample (germline variants only,
     * no somatic events); 0 = do not generate a normal.
     */
    double normalCoverage = 0.0;

    ReadSimParams readSim;
    VariantGenParams variants;
};

/** One chromosome's slice of the workload. */
struct ChromosomeWorkload
{
    int number = 0;          ///< 1-based autosome number
    int32_t contig = 0;      ///< contig index in the genome
    std::vector<Variant> truth;
    std::vector<Read> reads; ///< aligned reads (tumor/sample)
    /** Matched-normal reads (germline haplotype only); empty
     *  unless WorkloadParams::normalCoverage > 0. */
    std::vector<Read> normalReads;
    int64_t misalignedIndelReads = 0;
    int64_t indelSpanningReads = 0;
};

/** A complete synthesized workload. */
struct GenomeWorkload
{
    ReferenceGenome reference;
    std::vector<ChromosomeWorkload> chromosomes;

    /** @return the chromosome entry for 1-based number @p n. */
    const ChromosomeWorkload &chromosome(int n) const;

    int64_t totalReads() const;

    /** Every chromosome's reads, in chromosome order. */
    std::vector<Read> allReads() const;
};

/** Synthesize a workload (deterministic in the parameters). */
GenomeWorkload buildWorkload(const WorkloadParams &params);

} // namespace iracc

#endif // IRACC_CORE_WORKLOAD_HH
