/**
 * @file
 * Suffix array with exact-match range queries -- the index substrate
 * of the primary-alignment pipeline (the paper's Figure 2 shows
 * "suffix array lookup" as one of BWA-MEM's stage buckets).
 *
 * Construction uses the prefix-doubling algorithm (O(n log n) with
 * radix-free std::sort ranks, O(n log^2 n) worst case), which is
 * simple, dependency-free, and plenty for the scaled genomes IRACC
 * simulates.
 */

#ifndef IRACC_ALIGN_SUFFIX_ARRAY_HH
#define IRACC_ALIGN_SUFFIX_ARRAY_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genomics/base.hh"

namespace iracc {

/** Half-open match range in suffix-array order. */
struct SaRange
{
    int64_t lo = 0; ///< first matching suffix rank
    int64_t hi = 0; ///< one past the last matching rank

    int64_t count() const { return hi - lo; }
    bool empty() const { return hi <= lo; }
};

/** Suffix array over one contig. */
class SuffixArray
{
  public:
    /** Build the index for @p text. */
    explicit SuffixArray(const BaseSeq &text);

    /** @return number of indexed positions. */
    int64_t size() const { return static_cast<int64_t>(sa.size()); }

    /** @return text position of the suffix with rank @p r. */
    int64_t position(int64_t r) const { return sa.at(
        static_cast<size_t>(r)); }

    /**
     * Find all exact occurrences of @p pattern.
     * @return the suffix-rank range (possibly empty)
     */
    SaRange find(std::string_view pattern) const;

    /**
     * Length of the longest prefix of @p pattern (starting at
     * @p offset) that occurs in the text, and its match range --
     * the SMEM-style maximal-exact-match primitive.
     */
    int64_t longestPrefixMatch(std::string_view pattern, size_t offset,
                               SaRange &range) const;

  private:
    const BaseSeq text;
    std::vector<int64_t> sa;

    /** Lexicographic compare of pattern against suffix sa[r]. */
    int comparePattern(std::string_view pattern, size_t plen,
                       int64_t r) const;
};

} // namespace iracc

#endif // IRACC_ALIGN_SUFFIX_ARRAY_HH
