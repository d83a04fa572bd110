/**
 * @file
 * Uniform interface over the two exact-match index substrates --
 * the plain suffix array and the FM-index -- so the aligner's
 * seeding stage can use either (BWA uses the FM-index; the suffix
 * array is the faster choice at IRACC's scaled genome sizes).
 */

#ifndef IRACC_ALIGN_SEED_INDEX_HH
#define IRACC_ALIGN_SEED_INDEX_HH

#include <memory>

#include "align/fm_index.hh"
#include "align/suffix_array.hh"

namespace iracc {

/** Which index structure backs the seeding stage. */
enum class SeedIndexKind {
    SuffixArray,
    FmIndex,
};

/** Abstract exact-match index. */
class SeedIndex
{
  public:
    virtual ~SeedIndex() = default;

    /** All exact occurrences of a pattern. */
    virtual SaRange find(std::string_view pattern) const = 0;

    /** Text position of the suffix with the given rank. */
    virtual int64_t position(int64_t rank) const = 0;

    /** Longest matching prefix of pattern[offset..]. */
    virtual int64_t longestPrefixMatch(std::string_view pattern,
                                       size_t offset,
                                       SaRange &range) const = 0;
};

/** Build the selected index over a text. */
std::unique_ptr<SeedIndex> makeSeedIndex(SeedIndexKind kind,
                                         const BaseSeq &text);

} // namespace iracc

#endif // IRACC_ALIGN_SEED_INDEX_HH
