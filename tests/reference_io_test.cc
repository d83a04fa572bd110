/**
 * @file
 * Tests for the reference genome container, the scaled karyotype,
 * and the FASTA/FASTQ/SAM-lite serialization boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "genomics/io.hh"
#include "genomics/karyotype.hh"
#include "genomics/reference.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

TEST(Reference, AddAndLookup)
{
    ReferenceGenome ref;
    int32_t a = ref.addContig("Ch1", "ACGTACGT");
    int32_t b = ref.addContig("Ch2", "TTTT");
    EXPECT_EQ(ref.numContigs(), 2u);
    EXPECT_EQ(ref.findContig("Ch1"), a);
    EXPECT_EQ(ref.findContig("Ch2"), b);
    EXPECT_EQ(ref.findContig("ChX"), -1);
    EXPECT_EQ(ref.totalLength(), 12);
    EXPECT_EQ(ref.at(a, 1), 'C');
}

TEST(Reference, SliceClamps)
{
    ReferenceGenome ref;
    ref.addContig("c", "ACGTACGT");
    EXPECT_EQ(ref.slice(0, 2, 6), "GTAC");
    EXPECT_EQ(ref.slice(0, -5, 3), "ACG");
    EXPECT_EQ(ref.slice(0, 6, 100), "GT");
    EXPECT_EQ(ref.slice(0, 5, 5), "");
}

TEST(Reference, RandomSequenceValidAndSized)
{
    Rng rng(1);
    BaseSeq s = ReferenceGenome::randomSequence(5000, rng);
    EXPECT_EQ(s.size(), 5000u);
    EXPECT_TRUE(isValidSequence(s));
    // Contains all four bases.
    for (char c : {'A', 'C', 'G', 'T'})
        EXPECT_NE(s.find(c), std::string::npos);
}

TEST(Karyotype, RealLengthsAndNames)
{
    EXPECT_EQ(grch37AutosomeLength(1), 249250621);
    EXPECT_EQ(grch37AutosomeLength(21), 48129895);
    EXPECT_EQ(grch37AutosomeLength(22), 51304566);
    EXPECT_EQ(autosomeName(21), "Ch21");
    // Ch21 is the smallest autosome, Ch1 the largest.
    for (int n = 2; n <= 22; ++n)
        EXPECT_LE(grch37AutosomeLength(n), grch37AutosomeLength(1));
    for (int n = 1; n <= 22; ++n)
        EXPECT_GE(grch37AutosomeLength(n), grch37AutosomeLength(21));
}

TEST(Karyotype, ScalingPreservesProportions)
{
    auto k = scaledKaryotype(1000, 1);
    ASSERT_EQ(k.size(), 22u);
    EXPECT_EQ(k[0].length, 249250621 / 1000);
    EXPECT_EQ(k[20].length, 48129895 / 1000);
    // Floor applies.
    auto floored = scaledKaryotype(1'000'000'000, 5000);
    for (const auto &c : floored)
        EXPECT_EQ(c.length, 5000);
}

TEST(Fasta, RoundTrip)
{
    ReferenceGenome ref;
    Rng rng(2);
    ref.addContig("Ch1", ReferenceGenome::randomSequence(150, rng));
    ref.addContig("Ch2", ReferenceGenome::randomSequence(61, rng));

    std::stringstream ss;
    writeFasta(ss, ref);
    ReferenceGenome back = readFasta(ss);
    ASSERT_EQ(back.numContigs(), 2u);
    EXPECT_EQ(back.contig(0).name, "Ch1");
    EXPECT_EQ(back.contig(0).seq, ref.contig(0).seq);
    EXPECT_EQ(back.contig(1).seq, ref.contig(1).seq);
}

TEST(Fasta, HeaderTokenization)
{
    std::stringstream ss(">chr1 some description\nACGT\nACGT\n");
    ReferenceGenome ref = readFasta(ss);
    ASSERT_EQ(ref.numContigs(), 1u);
    EXPECT_EQ(ref.contig(0).name, "chr1");
    EXPECT_EQ(ref.contig(0).seq, "ACGTACGT");
}

std::vector<Read>
sampleReads()
{
    Read a;
    a.name = "r1";
    a.setSequence("ACGTACGTAC",
                  QualSeq{30, 31, 32, 33, 34, 35, 36, 37, 38, 39});
    a.contig = 0;
    a.pos = 5;
    a.cigar = Cigar::fromString("4M2I4M");
    a.reverse = true;

    Read b;
    b.name = "r2";
    b.setSequence("TTTTT", QualSeq{20, 20, 20, 20, 20});
    b.contig = 0;
    b.pos = 42;
    b.cigar = Cigar::simpleMatch(5);
    b.duplicate = true;
    return {a, b};
}

TEST(Fastq, RoundTrip)
{
    auto reads = sampleReads();
    std::stringstream ss;
    writeFastq(ss, reads);
    auto back = readFastq(ss);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].name, "r1");
    EXPECT_EQ(back[0].bases(), reads[0].bases());
    EXPECT_TRUE(std::ranges::equal(back[0].quals(), reads[0].quals()));
    EXPECT_TRUE(back[0].cigar.empty()); // alignment dropped
}

TEST(SamLite, RoundTripPreservesAlignment)
{
    ReferenceGenome ref;
    ref.addContig("Ch9", BaseSeq(100, 'A'));
    auto reads = sampleReads();
    std::stringstream ss;
    writeSamLite(ss, ref, reads);
    auto back = readSamLite(ss, ref);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].pos, 5);
    EXPECT_EQ(back[0].cigar.toString(), "4M2I4M");
    EXPECT_TRUE(back[0].reverse);
    EXPECT_FALSE(back[0].duplicate);
    EXPECT_TRUE(back[1].duplicate);
    EXPECT_TRUE(std::ranges::equal(back[1].quals(), reads[1].quals()));
}

} // namespace
} // namespace iracc
