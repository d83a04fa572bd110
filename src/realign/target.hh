/**
 * @file
 * IR target (realignment site) identification -- the GATK3
 * RealignerTargetCreator analog.
 *
 * A target is a half-open reference interval [start, end) around
 * observed indel evidence.  All reads whose start or end position
 * lands inside the interval belong to the target (paper Appendix,
 * Figure 10).  Every target is processed completely independently,
 * which is the task parallelism the accelerator exploits.
 */

#ifndef IRACC_REALIGN_TARGET_HH
#define IRACC_REALIGN_TARGET_HH

#include <cstdint>
#include <vector>

#include "genomics/read.hh"

namespace iracc {

/** One INDEL-realignment site. */
struct IrTarget
{
    int32_t contig = 0;
    int64_t start = 0; ///< inclusive reference start
    int64_t end = 0;   ///< exclusive reference end

    int64_t length() const { return end - start; }

    bool
    operator==(const IrTarget &o) const
    {
        return contig == o.contig && start == o.start && end == o.end;
    }
};

/** Knobs for target creation. */
struct TargetCreationParams
{
    /** Padding added on each side of an indel interval. */
    int64_t padding = 25;

    /** Merge targets whose padded intervals are this close (bp);
     *  clustered indels coalesce into one large target. */
    int64_t mergeDistance = 100;

    /**
     * Max target interval length.  Together with read spans, keeps
     * every consensus within the 2048-byte consensus buffer.
     */
    int64_t maxTargetLength = 450;
};

/**
 * Identify realignment targets on one contig from indel evidence in
 * the aligned reads' CIGARs.
 *
 * @param reads         aligned reads (any order); only reads on
 *                      @p contig are considered
 * @param contig        contig to scan
 * @param contig_length contig length for clamping
 * @param params        creation knobs
 * @param candidates    optional indices into @p reads to scan
 *                      instead of every read; must include every
 *                      read on @p contig (others are ignored)
 * @return targets sorted by start, non-overlapping
 */
std::vector<IrTarget> createTargets(
    const std::vector<Read> &reads, int32_t contig,
    int64_t contig_length, const TargetCreationParams &params,
    const std::vector<uint32_t> *candidates = nullptr);

/**
 * Collect the indices of reads belonging to a target, capped at
 * kMaxReads (the accelerator's read buffer depth); excess reads are
 * dropped deterministically in input order, matching the paper's
 * "maximum of 256 reads per target".
 */
std::vector<uint32_t> assignReads(const std::vector<Read> &reads,
                                  const IrTarget &target);

} // namespace iracc

#endif // IRACC_REALIGN_TARGET_HH
