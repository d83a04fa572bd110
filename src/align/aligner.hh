/**
 * @file
 * Seed-and-extend short-read aligner -- the BWA-MEM stand-in that
 * provides the primary-alignment pipeline stage of Figure 2.
 *
 * The pipeline mirrors the buckets of the paper's primary-alignment
 * breakdown (SMEM generation, suffix-array lookup, seed extension
 * via Smith-Waterman, output), and each stage is timed so the
 * Figure 2 bench can report the stage shares from a real run.
 */

#ifndef IRACC_ALIGN_ALIGNER_HH
#define IRACC_ALIGN_ALIGNER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "align/seed_index.hh"
#include "align/smith_waterman.hh"
#include "genomics/read.hh"
#include "genomics/reference.hh"

namespace iracc {

namespace obs {
struct Observability;
}

/** Per-stage wall-clock seconds of an alignment run. */
struct AlignerStageTimes
{
    double smemSeconds = 0.0;     ///< seed (maximal match) finding
    double lookupSeconds = 0.0;   ///< suffix-array position lookup
    double extendSeconds = 0.0;   ///< Smith-Waterman extension
    double outputSeconds = 0.0;   ///< record finalization
    double otherSeconds = 0.0;    ///< chaining and bookkeeping

    double
    total() const
    {
        return smemSeconds + lookupSeconds + extendSeconds +
               outputSeconds + otherSeconds;
    }
};

/** Aligner tuning knobs. */
struct AlignerParams
{
    uint32_t seedLength = 20;     ///< minimum useful seed length
    uint32_t seedStride = 16;     ///< query positions between seeds
    uint32_t maxSeedHits = 16;    ///< ignore ultra-repetitive seeds
    int64_t windowFlank = 24;     ///< SW window slack on each side
    SwParams swParams;

    /** Index substrate for the seeding stage (BWA uses FmIndex). */
    SeedIndexKind indexKind = SeedIndexKind::SuffixArray;
};

/**
 * Read aligner over one reference genome (one suffix array per
 * contig).
 */
class ReadAligner
{
  public:
    ReadAligner(const ReferenceGenome &ref, AlignerParams params = {});

    /**
     * Align one read; fills contig/pos/cigar/mapq.
     * @return true when a confident placement was found
     */
    bool alignRead(Read &read);

    /** Align a batch, accumulating stage times. */
    uint32_t alignAll(std::vector<Read> &reads);

    const AlignerStageTimes &stageTimes() const { return times; }
    void resetStageTimes() { times = AlignerStageTimes(); }

    /**
     * Attach (or detach, with nullptr) host observability: each
     * alignAll() batch then emits one "align batch" trace span,
     * samples the per-stage deltas into the
     * `align.stage.<stage>_ns` histograms, and bumps the
     * `align.reads.total` / `align.reads.aligned` counters.  The
     * per-read hot path is untouched either way.
     */
    void setObservability(obs::Observability *o) { obsv = o; }

  private:
    const ReferenceGenome &ref;
    AlignerParams params;
    std::vector<std::unique_ptr<SeedIndex>> indexes;
    AlignerStageTimes times;
    obs::Observability *obsv = nullptr;
};

} // namespace iracc

#endif // IRACC_ALIGN_ALIGNER_HH
