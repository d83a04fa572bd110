/**
 * @file
 * Tests for the primary-alignment substrate: suffix array,
 * Smith-Waterman, and the seed-and-extend aligner.
 */

#include <gtest/gtest.h>

#include "align/aligner.hh"
#include "align/smith_waterman.hh"
#include "align/suffix_array.hh"
#include "genomics/read_simulator.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** Brute-force occurrence count of a pattern. */
int64_t
bruteCount(const BaseSeq &text, const BaseSeq &pattern)
{
    int64_t count = 0;
    if (pattern.size() > text.size())
        return 0;
    for (size_t i = 0; i + pattern.size() <= text.size(); ++i)
        if (text.compare(i, pattern.size(), pattern) == 0)
            ++count;
    return count;
}

TEST(SuffixArray, IsAPermutationInSuffixOrder)
{
    Rng rng(1);
    BaseSeq text = ReferenceGenome::randomSequence(500, rng);
    SuffixArray sa(text);
    ASSERT_EQ(sa.size(), static_cast<int64_t>(text.size()));

    std::vector<bool> seen(text.size(), false);
    for (int64_t r = 0; r < sa.size(); ++r) {
        int64_t p = sa.position(r);
        ASSERT_GE(p, 0);
        ASSERT_LT(p, sa.size());
        ASSERT_FALSE(seen[static_cast<size_t>(p)]);
        seen[static_cast<size_t>(p)] = true;
    }
    // Suffixes must be in lexicographic order.
    for (int64_t r = 1; r < sa.size(); ++r) {
        BaseSeq a = text.substr(
            static_cast<size_t>(sa.position(r - 1)));
        BaseSeq b = text.substr(static_cast<size_t>(sa.position(r)));
        ASSERT_LE(a, b);
    }
}

class SuffixArraySearch : public ::testing::TestWithParam<int>
{
};

TEST_P(SuffixArraySearch, MatchesBruteForce)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    BaseSeq text = ReferenceGenome::randomSequence(
        300 + rng.below(700), rng);
    SuffixArray sa(text);

    for (int q = 0; q < 40; ++q) {
        size_t len = 1 + rng.below(12);
        BaseSeq pattern;
        if (rng.chance(0.7) && text.size() > len) {
            size_t off = rng.below(text.size() - len);
            pattern = text.substr(off, len);
        } else {
            for (size_t i = 0; i < len; ++i)
                pattern.push_back(kConcreteBases[rng.below(4)]);
        }
        SaRange range = sa.find(pattern);
        ASSERT_EQ(range.count(), bruteCount(text, pattern))
            << "pattern " << pattern;
        // Every reported position must be a real occurrence.
        for (int64_t r = range.lo; r < range.hi; ++r) {
            size_t pos = static_cast<size_t>(sa.position(r));
            ASSERT_EQ(text.compare(pos, pattern.size(), pattern), 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArraySearch,
                         ::testing::Range(0, 8));

TEST(SuffixArray, LongestPrefixMatch)
{
    BaseSeq text = "ACGTACGTTTACGT";
    SuffixArray sa(text);
    SaRange range;
    // "ACGTT" occurs (at 4); "ACGTTG" does not -> match length 5.
    int64_t len = sa.longestPrefixMatch("ACGTTG", 0, range);
    EXPECT_EQ(len, 5);
    EXPECT_EQ(range.count(), 1);
    EXPECT_EQ(sa.position(range.lo), 4);
}

TEST(SmithWaterman, PerfectMatch)
{
    BaseSeq window = "TTTTACGTACGTTTTT";
    BaseSeq read = "ACGTACGT";
    SwAlignment aln = smithWaterman(window, read);
    EXPECT_EQ(aln.windowOffset, 4);
    EXPECT_EQ(aln.cigar.toString(), "8M");
    EXPECT_EQ(aln.score, 16); // 8 matches x 2
}

TEST(SmithWaterman, DetectsDeletion)
{
    // Read skips 3 window bases in the middle.
    BaseSeq window = "AAAACCCCGGGGTTTTAAAA";
    BaseSeq read = "CCCCTTTT"; // GGGG deleted
    SwParams p;
    SwAlignment aln = smithWaterman(window, read, p);
    EXPECT_EQ(aln.cigar.toString(), "4M4D4M");
    EXPECT_EQ(aln.windowOffset, 4);
}

TEST(SmithWaterman, DetectsInsertion)
{
    BaseSeq window = "AAAACCCCGGGGAAAA";
    BaseSeq read = "CCCCTTGGGG"; // TT inserted
    SwAlignment aln = smithWaterman(window, read);
    EXPECT_EQ(aln.cigar.toString(), "4M2I4M");
}

TEST(SmithWaterman, CigarAlwaysConsumesWholeRead)
{
    Rng rng(33);
    for (int t = 0; t < 40; ++t) {
        size_t wlen = 30 + rng.below(100);
        size_t rlen = 5 + rng.below(25);
        BaseSeq window, read;
        for (size_t i = 0; i < wlen; ++i)
            window.push_back(kConcreteBases[rng.below(4)]);
        for (size_t i = 0; i < rlen; ++i)
            read.push_back(kConcreteBases[rng.below(4)]);
        SwAlignment aln = smithWaterman(window, read);
        ASSERT_EQ(aln.cigar.readLength(),
                  static_cast<uint32_t>(rlen));
        ASSERT_GE(aln.windowOffset, 0);
        ASSERT_LE(aln.windowOffset +
                      aln.cigar.referenceLength(),
                  wlen);
    }
}

TEST(ReadAligner, PlacesCleanReadsAtTruePositions)
{
    Rng rng(55);
    ReferenceGenome ref;
    int32_t contig = ref.addContig(
        "c", ReferenceGenome::randomSequence(20000, rng));

    // Error-free reads cut straight from the reference.
    AlignerParams params;
    ReadAligner aligner(ref, params);
    int correct = 0, total = 60;
    for (int i = 0; i < total; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(20000 - 100));
        Read read;
        read.name = "r" + std::to_string(i);
        read.setSequence(ref.slice(contig, pos, pos + 100),
                         QualSeq(100, 30));
        read.truePos = pos;
        ASSERT_TRUE(aligner.alignRead(read));
        if (read.pos == pos &&
            read.cigar.toString() == "100M") {
            ++correct;
        }
    }
    // Random 20 kbp sequence: virtually every 100-mer is unique.
    EXPECT_GE(correct, total - 2);
}

TEST(ReadAligner, RecoversIndelReads)
{
    Rng rng(66);
    ReferenceGenome ref;
    int32_t contig = ref.addContig(
        "c", ReferenceGenome::randomSequence(20000, rng));

    ReadAligner aligner(ref);
    // A read with a 4 bp deletion relative to the reference.
    int64_t pos = 5000;
    BaseSeq read_seq = ref.slice(contig, pos, pos + 50) +
                       ref.slice(contig, pos + 54, pos + 104);
    Read read;
    read.name = "indel";
    read.setSequence(read_seq, QualSeq(read_seq.size(), 30));
    ASSERT_TRUE(aligner.alignRead(read));
    EXPECT_EQ(read.pos, pos);
    EXPECT_TRUE(read.cigar.hasIndel());
    EXPECT_EQ(read.cigar.toString(), "50M4D50M");
}

TEST(ReadAligner, StageTimesAccumulate)
{
    Rng rng(77);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(8000, rng));
    ReadAligner aligner(ref);

    std::vector<Read> reads;
    for (int i = 0; i < 10; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(8000 - 100));
        Read r;
        r.name = "r" + std::to_string(i);
        r.setSequence(ref.slice(0, pos, pos + 100), QualSeq(100, 30));
        reads.push_back(r);
    }
    uint32_t aligned = aligner.alignAll(reads);
    EXPECT_EQ(aligned, 10u);
    const AlignerStageTimes &t = aligner.stageTimes();
    EXPECT_GT(t.total(), 0.0);
    EXPECT_GT(t.smemSeconds, 0.0);
    EXPECT_GT(t.extendSeconds, 0.0);
}

} // namespace
} // namespace iracc
