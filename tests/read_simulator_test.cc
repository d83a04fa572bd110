/**
 * @file
 * Tests for the Illumina-like read simulator and its
 * primary-alignment artifact model.
 */

#include <gtest/gtest.h>

#include "genomics/read_simulator.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

struct SimFixture
{
    ReferenceGenome ref;
    std::vector<Variant> variants;
    int32_t contig;

    explicit SimFixture(uint64_t seed = 11, int64_t len = 40000)
    {
        Rng rng(seed);
        contig = ref.addContig(
            "c", ReferenceGenome::randomSequence(len, rng));
        VariantGenParams vp;
        vp.insRate = 4e-4;
        vp.delRate = 4e-4;
        variants = generateVariants(ref.contig(contig).seq, contig,
                                    vp, rng);
    }
};

TEST(ReadSimulator, DeterministicForSameSeed)
{
    SimFixture fx;
    ReadSimParams params;
    ReadSimulator sim_a(params, 42), sim_b(params, 42);
    auto a = sim_a.simulateContig(fx.ref, fx.contig, fx.variants);
    auto b = sim_b.simulateContig(fx.ref, fx.contig, fx.variants);
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (size_t i = 0; i < a.reads.size(); ++i) {
        EXPECT_EQ(a.reads[i].bases(), b.reads[i].bases());
        EXPECT_EQ(a.reads[i].pos, b.reads[i].pos);
        EXPECT_EQ(a.reads[i].cigar.toString(),
                  b.reads[i].cigar.toString());
    }
}

TEST(ReadSimulator, CoverageApproximatelyMet)
{
    SimFixture fx;
    ReadSimParams params;
    params.coverage = 20.0;
    ReadSimulator sim(params, 7);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);
    double bases = 0;
    for (const Read &r : out.reads)
        bases += static_cast<double>(r.length());
    double observed = bases /
        static_cast<double>(fx.ref.contig(fx.contig).length());
    EXPECT_NEAR(observed, 20.0, 1.0);
}

TEST(ReadSimulator, AllReadsValidAndInBounds)
{
    SimFixture fx;
    ReadSimParams params;
    ReadSimulator sim(params, 3);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);
    ASSERT_GT(out.reads.size(), 100u);
    int64_t ctg_len = fx.ref.contig(fx.contig).length();
    for (const Read &r : out.reads) {
        r.assertValid();
        EXPECT_GE(r.pos, 0);
        EXPECT_LE(r.endPos(), ctg_len + 32); // indel slack
        EXPECT_EQ(r.length(),
                  static_cast<size_t>(params.readLength));
    }
}

TEST(ReadSimulator, EmitsIndelCarryingAndMisalignedReads)
{
    SimFixture fx;
    ReadSimParams params;
    params.coverage = 40.0;
    ReadSimulator sim(params, 5);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);

    EXPECT_GT(out.indelSpanningReads, 0);
    EXPECT_GT(out.misalignedIndelReads, 0);
    // The artifact model leaves some reads correctly aligned too.
    EXPECT_LT(out.misalignedIndelReads, out.indelSpanningReads);

    int64_t with_indel_cigar = 0;
    for (const Read &r : out.reads)
        with_indel_cigar += r.cigar.hasIndel() ? 1 : 0;
    EXPECT_GT(with_indel_cigar, 0);
}

TEST(ReadSimulator, QualityModelWithinPhredRange)
{
    SimFixture fx;
    ReadSimParams params;
    ReadSimulator sim(params, 9);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);
    double sum = 0;
    uint64_t n = 0;
    for (const Read &r : out.reads) {
        for (uint8_t q : r.quals()) {
            ASSERT_GE(q, 2);
            ASSERT_LE(q, kMaxPhred);
            sum += q;
            ++n;
        }
    }
    double mean = sum / static_cast<double>(n);
    // Mean should sit between qual_mean - decay and qual_mean.
    EXPECT_GT(mean, params.qualMean - params.qualDecay);
    EXPECT_LT(mean, params.qualMean + 1.0);
}

TEST(ReadSimulator, ErrorFreeReadsMatchReferenceHaplotype)
{
    // With astronomically high base quality, non-carrier reads must
    // equal the reference slice at their position.
    SimFixture fx(21);
    ReadSimParams params;
    params.qualMean = 90.0;
    params.qualDecay = 0.0;
    params.qualJitter = 0.0;
    ReadSimulator sim(params, 13);
    auto out = sim.simulateContig(fx.ref, fx.contig, fx.variants);

    int64_t checked = 0;
    for (const Read &r : out.reads) {
        if (r.cigar.toString() ==
                std::to_string(params.readLength) + "M" &&
            r.truePos == r.pos) {
            BaseSeq want = fx.ref.slice(fx.contig, r.pos,
                                        r.pos + params.readLength);
            if (want == r.bases())
                ++checked;
        }
    }
    // The overwhelming majority of pure-match reads are reference
    // reads and must match exactly.
    EXPECT_GT(checked, static_cast<int64_t>(out.reads.size() / 2));
}

TEST(ReadSimulator, RejectsBadParameters)
{
    ReadSimParams params;
    params.readLength = 500; // exceeds the 256-byte read buffer
    EXPECT_DEATH({ ReadSimulator sim(params, 1); }, "read length");
}

} // namespace
} // namespace iracc
