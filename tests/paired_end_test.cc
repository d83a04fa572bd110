/**
 * @file
 * Tests for paired-end simulation, fragment-signature duplicate
 * marking, and pair-flag serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "genomics/io.hh"
#include "genomics/read_simulator.hh"
#include "refine/duplicate_marker.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

struct PairFixture
{
    ReferenceGenome ref;
    std::vector<Variant> variants;
    int32_t contig;

    PairFixture()
    {
        Rng rng(31);
        contig = ref.addContig(
            "c", ReferenceGenome::randomSequence(50000, rng));
        VariantGenParams vp;
        variants = generateVariants(ref.contig(contig).seq, contig,
                                    vp, rng);
    }
};

TEST(PairedEnd, EmitsProperPairs)
{
    PairFixture fx;
    ReadSimParams params;
    params.pairedEnd = true;
    params.coverage = 20.0;
    ReadSimulator sim(params, 5);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);

    ASSERT_GT(out.reads.size(), 100u);
    ASSERT_EQ(out.reads.size() % 2, 0u);
    for (size_t i = 0; i + 1 < out.reads.size(); i += 2) {
        const Read &r1 = out.reads[i];
        const Read &r2 = out.reads[i + 1];
        EXPECT_TRUE(r1.paired);
        EXPECT_TRUE(r2.paired);
        EXPECT_TRUE(r1.firstOfPair);
        EXPECT_FALSE(r2.firstOfPair);
        EXPECT_FALSE(r1.reverse);
        EXPECT_TRUE(r2.reverse); // FR orientation
        // Names share the fragment stem.
        EXPECT_EQ(r1.name.substr(0, r1.name.size() - 2),
                  r2.name.substr(0, r2.name.size() - 2));
        EXPECT_EQ(r1.name.back(), '1');
        EXPECT_EQ(r2.name.back(), '2');
        // Mate positions cross-reference.
        EXPECT_EQ(r1.matePos, r2.pos);
        EXPECT_EQ(r2.matePos, out.reads[i].pos);
    }
}

TEST(PairedEnd, FragmentLengthsNearTheModel)
{
    PairFixture fx;
    ReadSimParams params;
    params.pairedEnd = true;
    params.fragmentMean = 320;
    params.fragmentStddev = 40;
    ReadSimulator sim(params, 7);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);

    double sum = 0;
    int64_t n = 0;
    for (size_t i = 0; i + 1 < out.reads.size(); i += 2) {
        // Insert size from sampled (true) positions.
        int64_t frag = out.reads[i + 1].truePos +
                       params.readLength - out.reads[i].truePos;
        // Indel-carrying alignments shift slightly; ignore those.
        if (frag > 0 && frag < 1000) {
            sum += static_cast<double>(frag);
            ++n;
        }
    }
    ASSERT_GT(n, 50);
    EXPECT_NEAR(sum / static_cast<double>(n), 320.0, 20.0);
}

TEST(PairedEnd, CoverageCountsBothMates)
{
    PairFixture fx;
    ReadSimParams params;
    params.pairedEnd = true;
    params.coverage = 16.0;
    ReadSimulator sim(params, 9);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);
    double bases = 0;
    for (const Read &r : out.reads)
        bases += static_cast<double>(r.length());
    double cov = bases /
        static_cast<double>(fx.ref.contig(fx.contig).length());
    EXPECT_NEAR(cov, 16.0, 1.5);
}

Read
pairedRead(int64_t pos, int64_t mate_pos, bool first, uint8_t qual)
{
    Read r;
    static int counter = 0;
    r.name = "p" + std::to_string(counter++);
    r.setSequence(BaseSeq(50, 'A'), QualSeq(50, qual));
    r.pos = pos;
    r.cigar = Cigar::simpleMatch(50);
    r.paired = true;
    r.firstOfPair = first;
    r.matePos = mate_pos;
    return r;
}

TEST(PairedDuplicates, FragmentSignatureSeparates)
{
    // Two fragments share R1 position but differ in mate position:
    // NOT duplicates.  A third fragment matches the first exactly:
    // duplicate.
    std::vector<Read> reads = {
        pairedRead(100, 400, true, 30),
        pairedRead(100, 500, true, 30),
        pairedRead(100, 400, true, 20), // duplicate of the first
    };
    uint64_t marked = markDuplicates(reads);
    EXPECT_EQ(marked, 1u);
    EXPECT_FALSE(reads[0].duplicate);
    EXPECT_FALSE(reads[1].duplicate);
    EXPECT_TRUE(reads[2].duplicate);
}

TEST(PairedDuplicates, PairedAndUnpairedNeverCollide)
{
    std::vector<Read> reads = {
        pairedRead(100, 400, true, 30),
    };
    Read solo;
    solo.name = "solo";
    solo.setSequence(BaseSeq(50, 'A'), QualSeq(50, 30));
    solo.pos = 100;
    solo.cigar = Cigar::simpleMatch(50);
    reads.push_back(solo);
    EXPECT_EQ(markDuplicates(reads), 0u);
}

TEST(PairedEnd, SamLiteRoundTripsPairFlags)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(1000, 'A'));
    std::vector<Read> reads = {
        pairedRead(10, 200, true, 30),
        pairedRead(200, 10, false, 30),
    };
    reads[0].contig = reads[1].contig = 0;
    std::stringstream ss;
    writeSamLite(ss, ref, reads);
    auto back = readSamLite(ss, ref);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_TRUE(back[0].paired);
    EXPECT_TRUE(back[0].firstOfPair);
    EXPECT_TRUE(back[1].paired);
    EXPECT_FALSE(back[1].firstOfPair);
}

} // namespace
} // namespace iracc
