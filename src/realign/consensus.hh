/**
 * @file
 * Consensus generation for one IR target.
 *
 * A consensus is one candidate assembly of the subject's sequence
 * over the target window: the reference window with a single
 * candidate indel applied.  Candidates are harvested from the
 * insertions/deletions present in the original alignments of the
 * reads spanning the site (paper Appendix glossary, "consensus").
 * Consensus 0 is always the unmodified reference window; at most
 * kMaxConsensuses total are kept (highest read support first).
 */

#ifndef IRACC_REALIGN_CONSENSUS_HH
#define IRACC_REALIGN_CONSENSUS_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/read.hh"
#include "genomics/reference.hh"
#include "realign/target.hh"

namespace iracc {

/** One candidate indel harvested from read CIGARs. */
struct IndelEvent
{
    /**
     * 0-based reference position of the anchor base; the event
     * applies immediately after it.
     */
    int64_t anchor = 0;

    bool isInsertion = false;

    /** Inserted bases (insertions only). */
    BaseSeq insertedBases;

    /** Deleted base count (deletions only). */
    int32_t delLength = 0;

    /** Number of reads whose alignment contains this event. */
    uint32_t support = 0;

    /** Net consensus-vs-reference length change. */
    int64_t
    lengthDelta() const
    {
        return isInsertion
            ? static_cast<int64_t>(insertedBases.size())
            : -static_cast<int64_t>(delLength);
    }

    /** Identity ignoring support (used for dedup). */
    bool
    sameEvent(const IndelEvent &o) const
    {
        return anchor == o.anchor && isInsertion == o.isInsertion &&
               insertedBases == o.insertedBases &&
               delLength == o.delLength;
    }
};

/**
 * Fully-assembled input for one IR target: the consensus set and
 * the read data, exactly what is marshalled into the accelerator's
 * input buffers.
 */
struct IrTargetInput
{
    IrTarget target;

    /** Reference window [windowStart, windowEnd) the consensuses
     *  cover; reads slide within this window. */
    int64_t windowStart = 0;
    int64_t windowEnd = 0;

    /** Consensus sequences; index 0 is the reference window. */
    std::vector<BaseSeq> consensuses;

    /** Event used to build consensus i (index 0 unused). */
    std::vector<IndelEvent> events;

    /** Indices of the target's reads into the caller's read set. */
    std::vector<uint32_t> readIndices;

    /**
     * Bases and qualities of each read, parallel to readIndices:
     * the reads' own slices (genomics/seq_block.hh), so the input
     * shares their blocks instead of copying the bytes, and stays
     * valid after the Reads themselves are gone.
     */
    std::vector<SeqSlice> readSeqs;

    size_t numConsensuses() const { return consensuses.size(); }
    size_t numReads() const { return readSeqs.size(); }

    /**
     * Append a read holding its own copy of @p bases and @p quals,
     * for inputs built without a read set (tests, generators,
     * benches); the index goes into readIndices separately.
     */
    void
    addRead(std::string_view bases, std::span<const uint8_t> quals)
    {
        readSeqs.push_back(SeqSlice::copyOf(bases, quals));
    }

    /** Worst-case base comparisons (Section II-C formula). */
    uint64_t worstCaseComparisons() const;

    /**
     * Check every architectural limit (realign/limits.hh) without
     * terminating: @return an empty string when the target fits the
     * accelerator's input buffers, else a human-readable
     * description of the first violation.  This is the validation
     * boundary of the marshalling path -- an oversized target is
     * rejected here with a clean diagnostic instead of corrupting
     * state deep in the accelerator model.
     */
    std::string limitViolation() const;

    /** Validate every architectural limit; panics on violation. */
    void assertWithinLimits() const;
};

/** Extract all indel events from one read's alignment. */
std::vector<IndelEvent> extractIndelEvents(const Read &read);

/**
 * Build the complete IrTargetInput for a target.
 *
 * @param ref     the reference genome
 * @param reads   full aligned read set for the contig
 * @param target  the IR site
 * @param indices reads assigned to the target (from assignReads())
 */
IrTargetInput buildTargetInput(const ReferenceGenome &ref,
                               const std::vector<Read> &reads,
                               const IrTarget &target,
                               const std::vector<uint32_t> &indices);

} // namespace iracc

#endif // IRACC_REALIGN_CONSENSUS_HH
