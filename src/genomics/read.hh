/**
 * @file
 * Aligned short-read record (SAM-lite).
 *
 * A Read carries the sequenced bases, their Phred qualities, and the
 * current alignment (contig, 0-based start position, CIGAR).  The
 * record additionally keeps the ground-truth sampling position from
 * the read simulator so tests and the variant-caller evaluation can
 * measure how much INDEL realignment improves alignment consistency.
 *
 * Bases and qualities are read-only views of a shared block
 * (genomics/seq_block.hh): copying a Read shares the block, and new
 * bytes come in only through setSequence.  With a short name (the
 * string's inline buffer) and a CIGAR of at most Cigar::kInline
 * elements, a read parsed by SamLiteStreamReader makes no heap
 * allocation of its own.
 */

#ifndef IRACC_GENOMICS_READ_HH
#define IRACC_GENOMICS_READ_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "genomics/base.hh"
#include "genomics/cigar.hh"
#include "genomics/quality.hh"
#include "genomics/seq_block.hh"

namespace iracc {

/** Coordinate on the reference: contig index + 0-based offset. */
struct GenomePos
{
    int32_t contig = 0;
    int64_t offset = 0;

    bool
    operator==(const GenomePos &o) const
    {
        return contig == o.contig && offset == o.offset;
    }

    bool
    operator<(const GenomePos &o) const
    {
        return contig != o.contig ? contig < o.contig
                                  : offset < o.offset;
    }
};

/** One aligned short read. */
struct Read
{
    /** Query template name. */
    std::string name;

    /** Alignment contig index into the reference genome. */
    int32_t contig = 0;

    /** 0-based alignment start position on the contig. */
    int64_t pos = 0;

    /** Alignment description. */
    Cigar cigar;

    /** Phred-scaled mapping quality. */
    uint8_t mapq = 60;

    /** Reverse-strand flag (bases are already re-complemented). */
    bool reverse = false;

    /** PCR/optical duplicate flag (set by duplicate marking). */
    bool duplicate = false;

    /** Part of a read pair (paired-end sequencing). */
    bool paired = false;

    /** First read of the pair (R1); false = second (R2). */
    bool firstOfPair = false;

    /** Mate's alignment start (-1 = unpaired/unknown).  Held in
     *  memory only; SAM-lite does not serialize it. */
    int64_t matePos = -1;

    /** Ground truth: position the simulator sampled the read from. */
    int64_t truePos = -1;

    /** Base sequence, one byte per base. */
    std::string_view bases() const { return seq.bases(); }

    /** Raw Phred scores, parallel to bases. */
    std::span<const uint8_t> quals() const { return seq.quals(); }

    /**
     * Replace bases and qualities: both are copied into a block of
     * this read's own (the views may point into the old one).
     * Panics when their lengths differ.
     */
    void
    setSequence(std::string_view b, std::span<const uint8_t> q)
    {
        seq = SeqSlice::copyOf(b, q);
    }

    /**
     * The shared slice behind bases() and quals(): a copy of it keeps
     * the bytes alive after this Read is gone (IrTargetInput holds
     * one per read instead of copying the bytes).
     */
    const SeqSlice &sequence() const { return seq; }

    /** @return length of the read in bases. */
    size_t length() const { return seq.size(); }

    /** @return 0-based exclusive end position on the reference. */
    int64_t
    endPos() const
    {
        return pos + static_cast<int64_t>(cigar.referenceLength());
    }

    /** @return alignment start as a GenomePos. */
    GenomePos startPos() const { return {contig, pos}; }

    /**
     * @return true when the read overlaps the half-open reference
     * interval [start, end) on the given contig, i.e. its start or
     * end lands inside the interval (the paper's definition of a
     * read belonging to an IR target, see Appendix Figure 10).
     */
    bool overlaps(int32_t c, int64_t start, int64_t end) const;

    /** Internal-consistency check; panics on violation. */
    void assertValid() const;

  private:
    /** SamLiteStreamReader carves records from its arena. */
    friend class SamLiteStreamReader;

    SeqSlice seq;
};

} // namespace iracc

#endif // IRACC_GENOMICS_READ_HH
