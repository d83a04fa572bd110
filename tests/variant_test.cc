/**
 * @file
 * Tests for the pileup engine and position-based variant caller,
 * including the paper's end-to-end motivation: INDEL realignment
 * improves indel calling accuracy.
 */

#include <gtest/gtest.h>

#include "core/workload.hh"
#include "core/realign_job.hh"
#include "util/logging.hh"
#include "variant/caller.hh"

namespace iracc {
namespace {

Read
readAt(int64_t pos, BaseSeq bases, const std::string &cigar,
       uint8_t qual = 30)
{
    Read r;
    static int counter = 0;
    r.name = "v" + std::to_string(counter++);
    r.cigar = Cigar::fromString(cigar);
    r.setSequence(bases, QualSeq(bases.size(), qual));
    r.pos = pos;
    return r;
}

TEST(Pileup, CountsBasesAndQuals)
{
    std::vector<Read> reads = {
        readAt(10, "ACGT", "4M"),
        readAt(10, "ACGT", "4M"),
        readAt(12, "GT", "2M"),
    };
    auto cols = buildPileup(reads, 0, 10, 14);
    ASSERT_EQ(cols.size(), 4u);
    EXPECT_EQ(cols[0].depth, 2u);
    EXPECT_EQ(cols[0].baseCount[baseIndex('A')], 2u);
    EXPECT_EQ(cols[2].depth, 3u);
    EXPECT_EQ(cols[2].baseCount[baseIndex('G')], 3u);
    EXPECT_EQ(cols[2].baseQualSum[baseIndex('G')], 90u);
}

TEST(Pileup, CountsIndelStarts)
{
    std::vector<Read> reads = {
        readAt(10, "AAAABBBB", "4M4M"), // plain (merges to 8M)
        readAt(10, "AAAACCGG", "4M2I2M"),
        readAt(10, "AAAAGG", "4M2D2M"),
    };
    reads[0].setSequence("AAAAGGGG", reads[0].quals());
    auto cols = buildPileup(reads, 0, 10, 20);
    // Both indels anchor after reference position 13.
    EXPECT_EQ(cols[3].insStarts, 1u);
    EXPECT_EQ(cols[3].delStarts, 1u);
    EXPECT_EQ(cols[3].indelStarts(), 2u);
}

TEST(Pileup, SkipsDuplicatesAndOtherContigs)
{
    Read dup = readAt(10, "ACGT", "4M");
    dup.duplicate = true;
    Read other = readAt(10, "ACGT", "4M");
    other.contig = 5;
    auto cols = buildPileup({dup, other}, 0, 10, 14);
    EXPECT_EQ(cols[0].depth, 0u);
}

TEST(Caller, FindsObviousSnv)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(200, 'A'));
    std::vector<Read> reads;
    for (int i = 0; i < 20; ++i) {
        BaseSeq bases(20, 'A');
        bases[10] = 'G'; // reference position 100
        Read r = readAt(90, bases, "20M");
        reads.push_back(r);
    }
    auto calls = callVariants(ref, reads, 0, 0, 200);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].pos, 100);
    EXPECT_EQ(calls[0].type, VariantType::Snv);
    EXPECT_EQ(calls[0].altBase, 'G');
    EXPECT_GT(calls[0].alleleFraction, 0.9);
}

TEST(Caller, FindsIndelFromConsistentAlignments)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(200, 'A'));
    std::vector<Read> reads;
    for (int i = 0; i < 12; ++i)
        reads.push_back(readAt(90, BaseSeq(18, 'A'), "10M2D8M"));
    for (int i = 0; i < 12; ++i)
        reads.push_back(readAt(90, BaseSeq(20, 'A'), "20M"));
    auto calls = callVariants(ref, reads, 0, 0, 200);
    ASSERT_FALSE(calls.empty());
    bool found_del = false;
    for (const auto &c : calls)
        found_del |= c.type == VariantType::Deletion && c.pos == 99;
    EXPECT_TRUE(found_del);
}

TEST(Caller, ThresholdsSuppressNoise)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(200, 'A'));
    std::vector<Read> reads;
    // One stray mismatching read among 20: below allele fraction.
    for (int i = 0; i < 20; ++i)
        reads.push_back(readAt(90, BaseSeq(20, 'A'), "20M"));
    BaseSeq stray(20, 'A');
    stray[10] = 'C';
    reads[0].setSequence(stray, reads[0].quals());
    auto calls = callVariants(ref, reads, 0, 0, 200);
    EXPECT_TRUE(calls.empty());
}

TEST(CallAccuracy, PrecisionRecallF1)
{
    CallAccuracy acc;
    acc.truePositives = 8;
    acc.falsePositives = 2;
    acc.falseNegatives = 2;
    EXPECT_DOUBLE_EQ(acc.precision(), 0.8);
    EXPECT_DOUBLE_EQ(acc.recall(), 0.8);
    EXPECT_DOUBLE_EQ(acc.f1(), 0.8);
}

TEST(EndToEnd, RealignmentImprovesIndelCalling)
{
    // The paper's core clinical motivation (Section II-A): without
    // IR, locally-misaligned reads hide low-frequency indels from
    // position-based callers.
    setQuiet(true);
    WorkloadParams params;
    params.chromosomes = {20};
    params.scaleDivisor = 8000;
    params.minContigLength = 50000;
    params.coverage = 35.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    params.variants.snvRate = 5e-4;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosomes[0];
    int64_t len = wl.reference.contig(chr.contig).length();

    CallerParams cp;
    cp.minIndelFraction = 0.3;

    // Before realignment.
    auto before_calls = callVariants(wl.reference, chr.reads,
                                     chr.contig, 0, len, cp);
    CallAccuracy before = scoreCalls(before_calls, chr.truth, true);

    // After realignment.
    std::vector<Read> reads = chr.reads;
    SoftwareRealignerConfig cfg;
    cfg.prune = true;
    RealignSession(makeSoftwareBackend("software", "pruned", cfg))
        .runContig(wl.reference, chr.contig, reads);
    auto after_calls = callVariants(wl.reference, reads, chr.contig,
                                    0, len, cp);
    CallAccuracy after = scoreCalls(after_calls, chr.truth, true);

    // Realignment must recover indels the misalignment hid.
    EXPECT_GT(after.recall(), before.recall());
    EXPECT_GE(after.f1(), before.f1());
}

} // namespace
} // namespace iracc
