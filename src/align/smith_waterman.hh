/**
 * @file
 * Affine-gap pairwise alignment (Smith-Waterman / semi-global) with
 * traceback to a CIGAR -- the "seed extension" substrate of the
 * primary-alignment pipeline (paper Figure 2).
 *
 * The variant implemented is the one a read aligner actually needs:
 * glocal alignment where the whole read must align while the
 * reference window's flanks are free, so the read can land anywhere
 * inside the window.
 */

#ifndef IRACC_ALIGN_SMITH_WATERMAN_HH
#define IRACC_ALIGN_SMITH_WATERMAN_HH

#include <cstdint>
#include <string_view>

#include "genomics/base.hh"
#include "genomics/cigar.hh"

namespace iracc {

/** Alignment scoring parameters (BWA-MEM-like defaults). */
struct SwParams
{
    int32_t matchScore = 2;
    int32_t mismatchPenalty = 4;
    int32_t gapOpenPenalty = 6;
    int32_t gapExtendPenalty = 1;
};

/** Result of aligning a read into a reference window. */
struct SwAlignment
{
    int32_t score = 0;
    /** Offset of the alignment start within the window. */
    int64_t windowOffset = 0;
    Cigar cigar;
    /** DP cells evaluated (workload accounting). */
    uint64_t cellsComputed = 0;
};

/**
 * Align @p read into @p window (read fully consumed, window flanks
 * free).  @return the best-scoring alignment; score can be negative
 * for a hopeless window.
 */
SwAlignment smithWaterman(std::string_view window,
                          std::string_view read,
                          const SwParams &params = {});

} // namespace iracc

#endif // IRACC_ALIGN_SMITH_WATERMAN_HH
