/**
 * @file
 * FM-index over the Burrows-Wheeler transform -- the index
 * structure BWA actually uses for the "suffix array lookup" stage
 * of the primary-alignment pipeline (paper Figure 2).
 *
 * Supports backward search (exact-match range queries in O(|P|)
 * rank operations) and position lookup through a sampled suffix
 * array with LF-mapping walks.  Functionally interchangeable with
 * the plain SuffixArray index (equivalence is property-tested);
 * the aligner can be configured to use either.
 */

#ifndef IRACC_ALIGN_FM_INDEX_HH
#define IRACC_ALIGN_FM_INDEX_HH

#include <array>
#include <cstdint>
#include <vector>

#include "align/suffix_array.hh"
#include "genomics/base.hh"

namespace iracc {

/** FM-index over one contig. */
class FmIndex
{
  public:
    /**
     * Build from the text (internally builds a suffix array; the
     * text is stored with a unique $ sentinel appended).
     */
    explicit FmIndex(const BaseSeq &text);

    /** Indexed text length (without the sentinel). */
    int64_t size() const { return textLen; }

    /**
     * Backward search for all exact occurrences of @p pattern.
     * @return half-open suffix-rank range (in this index's own
     * rank space, usable with locate())
     */
    SaRange find(std::string_view pattern) const;

    /** Text position of the suffix with rank @p r. */
    int64_t locate(int64_t r) const;

    /**
     * Longest suffix of pattern[0..offset] ... analog of the
     * SMEM primitive: extends the match backward from the end of
     * the pattern slice starting at @p offset, returning the
     * longest prefix of pattern[offset..] found in the text.
     */
    int64_t longestPrefixMatch(std::string_view pattern, size_t offset,
                               SaRange &range) const;

  private:
    /** Character alphabet: $=0, A=1, C=2, G=3, T=4, N=5. */
    static constexpr int kAlphabet = 6;

    static int charRank(char c);

    /** rank(c, i): occurrences of c in bwt[0, i). */
    int64_t occ(int c, int64_t i) const;

    /** LF mapping: row of bwt[i] in the first column. */
    int64_t lf(int64_t i) const;

    int64_t textLen;
    std::vector<uint8_t> bwt;           ///< BWT char ranks
    std::array<int64_t, kAlphabet + 1> cTable{};
    /** Sampled occ checkpoints every kOccSample positions. */
    static constexpr int64_t kOccSample = 64;
    std::vector<std::array<int64_t, kAlphabet>> occSamples;
    /** Suffix-array values sampled at text positions divisible by
     *  kSaSample (-1 = not sampled); locate() walks LF to one. */
    static constexpr int64_t kSaSample = 16;
    std::vector<int64_t> sampledSa;
};

} // namespace iracc

#endif // IRACC_ALIGN_FM_INDEX_HH
