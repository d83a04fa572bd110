/**
 * @file
 * Tests for the FM-index: equivalence with the plain suffix array
 * on random texts, locate correctness, and the aligner running on
 * either index substrate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "align/aligner.hh"
#include "align/fm_index.hh"
#include "align/suffix_array.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

TEST(FmIndex, FindsKnownOccurrences)
{
    FmIndex fm("ACGTACGTACGT");
    SaRange r = fm.find("ACGT");
    EXPECT_EQ(r.count(), 3);
    std::set<int64_t> positions;
    for (int64_t i = r.lo; i < r.hi; ++i)
        positions.insert(fm.locate(i));
    EXPECT_EQ(positions, (std::set<int64_t>{0, 4, 8}));
}

TEST(FmIndex, MissingPatternEmptyRange)
{
    FmIndex fm("ACGTACGT");
    EXPECT_TRUE(fm.find("TTT").empty());
    EXPECT_TRUE(fm.find("ACGTACGTA").empty());
}

TEST(FmIndex, SingleCharacterCounts)
{
    FmIndex fm("AACCAAGG");
    EXPECT_EQ(fm.find("A").count(), 4);
    EXPECT_EQ(fm.find("C").count(), 2);
    EXPECT_EQ(fm.find("G").count(), 2);
    EXPECT_TRUE(fm.find("T").empty());
}

class FmEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(FmEquivalence, MatchesSuffixArrayOnRandomText)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
    BaseSeq text = ReferenceGenome::randomSequence(
        200 + rng.below(1800), rng);
    SuffixArray sa(text);
    FmIndex fm(text);

    for (int q = 0; q < 30; ++q) {
        size_t len = 1 + rng.below(16);
        BaseSeq pattern;
        if (rng.chance(0.7) && text.size() > len) {
            size_t off = rng.below(text.size() - len);
            pattern = text.substr(off, len);
        } else {
            for (size_t i = 0; i < len; ++i)
                pattern.push_back(kConcreteBases[rng.below(4)]);
        }

        SaRange sr = sa.find(pattern);
        SaRange fr = fm.find(pattern);
        ASSERT_EQ(fr.count(), sr.count()) << "pattern " << pattern;

        // Located position sets must agree exactly.
        std::multiset<int64_t> sa_pos, fm_pos;
        for (int64_t i = sr.lo; i < sr.hi; ++i)
            sa_pos.insert(sa.position(i));
        for (int64_t i = fr.lo; i < fr.hi; ++i)
            fm_pos.insert(fm.locate(i));
        ASSERT_EQ(fm_pos, sa_pos) << "pattern " << pattern;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTexts, FmEquivalence,
                         ::testing::Range(0, 6));

TEST(FmIndex, LongestPrefixMatchAgreesWithSuffixArray)
{
    Rng rng(77);
    BaseSeq text = ReferenceGenome::randomSequence(1500, rng);
    SuffixArray sa(text);
    FmIndex fm(text);

    for (int q = 0; q < 25; ++q) {
        BaseSeq pattern = text.substr(rng.below(1300), 60);
        // Corrupt the tail so the match ends early.
        for (size_t i = 40; i < pattern.size(); ++i)
            pattern[i] = kConcreteBases[rng.below(4)];
        SaRange sr, fr;
        int64_t sa_len = sa.longestPrefixMatch(pattern, 0, sr);
        int64_t fm_len = fm.longestPrefixMatch(pattern, 0, fr);
        ASSERT_EQ(fm_len, sa_len);
        ASSERT_EQ(fr.count(), sr.count());
    }
}

TEST(Aligner, FmIndexBackendAlignsIdentically)
{
    Rng rng(88);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(12000, rng));

    AlignerParams sa_params;
    AlignerParams fm_params;
    fm_params.indexKind = SeedIndexKind::FmIndex;
    ReadAligner sa_aligner(ref, sa_params);
    ReadAligner fm_aligner(ref, fm_params);

    for (int i = 0; i < 25; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(12000 - 100));
        Read a;
        a.name = "r" + std::to_string(i);
        a.setSequence(ref.slice(0, pos, pos + 100), QualSeq(100, 30));
        Read b = a;
        ASSERT_TRUE(sa_aligner.alignRead(a));
        ASSERT_TRUE(fm_aligner.alignRead(b));
        ASSERT_EQ(a.pos, b.pos);
        ASSERT_EQ(a.cigar.toString(), b.cigar.toString());
    }
}

} // namespace
} // namespace iracc
