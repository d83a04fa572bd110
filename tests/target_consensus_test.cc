/**
 * @file
 * Tests for IR target creation (RealignerTargetCreator analog),
 * read assignment, indel-event extraction, and consensus
 * generation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "realign/consensus.hh"
#include "realign/limits.hh"
#include "realign/stages.hh"
#include "realign/target.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

Read
makeRead(int64_t pos, const std::string &cigar, int32_t contig = 0,
         size_t qual = 30)
{
    Read r;
    r.cigar = Cigar::fromString(cigar);
    r.bases = BaseSeq(r.cigar.readLength(), 'A');
    r.quals.assign(r.cigar.readLength(),
                   static_cast<uint8_t>(qual));
    r.pos = pos;
    r.contig = contig;
    static int counter = 0;
    r.name = "t" + std::to_string(counter++);
    return r;
}

TEST(CreateTargets, NoIndelsNoTargets)
{
    std::vector<Read> reads = {makeRead(100, "50M"),
                               makeRead(200, "50M")};
    auto targets = createTargets(reads, 0, 10000, {});
    EXPECT_TRUE(targets.empty());
}

TEST(CreateTargets, PadsAroundIndel)
{
    TargetCreationParams params;
    params.padding = 25;
    // 20M2D30M at pos 100: deletion covers [120, 122).
    std::vector<Read> reads = {makeRead(100, "20M2D30M")};
    auto targets = createTargets(reads, 0, 10000, params);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].start, 120 - 25);
    EXPECT_EQ(targets[0].end, 122 + 25);
}

TEST(CreateTargets, MergesOverlappingEvidence)
{
    TargetCreationParams params;
    params.padding = 25;
    std::vector<Read> reads = {
        makeRead(100, "20M2D30M"), // deletion at 120
        makeRead(110, "20M2I28M"), // insertion at 130
    };
    auto targets = createTargets(reads, 0, 10000, params);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_LE(targets[0].start, 120 - 25);
    EXPECT_GE(targets[0].end, 131);
}

TEST(CreateTargets, SeparateSitesStaySeparate)
{
    std::vector<Read> reads = {
        makeRead(100, "20M2D30M"),
        makeRead(2000, "20M2I28M"),
    };
    auto targets = createTargets(reads, 0, 10000, {});
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_LT(targets[0].end, targets[1].start);
}

TEST(CreateTargets, SplitsOverlongIntervals)
{
    TargetCreationParams params;
    params.maxTargetLength = 200;
    // A picket fence of indels every 100 bp merges into one long
    // interval that must be split.
    std::vector<Read> reads;
    for (int i = 0; i < 30; ++i)
        reads.push_back(makeRead(1000 + i * 100, "20M2D30M"));
    auto targets = createTargets(reads, 0, 100000, params);
    ASSERT_GT(targets.size(), 1u);
    for (const auto &t : targets)
        EXPECT_LE(t.length(), params.maxTargetLength);
    // Sorted and non-overlapping.
    for (size_t i = 1; i < targets.size(); ++i)
        EXPECT_LE(targets[i - 1].end, targets[i].start);
}

TEST(CreateTargets, IgnoresDuplicatesAndOtherContigs)
{
    Read dup = makeRead(100, "20M2D30M");
    dup.duplicate = true;
    Read other = makeRead(100, "20M2D30M", 3);
    std::vector<Read> reads = {dup, other};
    EXPECT_TRUE(createTargets(reads, 0, 10000, {}).empty());
    EXPECT_EQ(createTargets(reads, 3, 10000, {}).size(), 1u);
}

TEST(PlanStage, CandidateListGivesTheFullScanPlan)
{
    // Shuffled reads on three contigs, some flagged duplicate, with
    // repeated start positions (ties order by read index) and a pile
    // past kMaxReads (the cap keeps the earliest keys).  Each
    // contig's candidate list, in any order, must plan exactly what
    // the full scan plans.
    Rng rng(0xC0A7);
    ReferenceGenome ref;
    for (const char *name : {"c0", "c1", "c2"})
        ref.addContig(name, ReferenceGenome::randomSequence(20000, rng));
    const char *cigars[] = {"70M", "70M", "40M2D30M", "30M3I37M",
                            "20M1D50M"};
    std::vector<Read> reads;
    for (int i = 0; i < 3000; ++i) {
        const int32_t contig = static_cast<int32_t>(rng.below(3));
        const int64_t pos = i % 3 == 0 ? 5000 + rng.range(0, 40)
                                       : rng.range(0, 19900);
        Read r = makeRead(pos, cigars[rng.below(5)], contig);
        r.duplicate = rng.chance(0.1);
        reads.push_back(r);
    }
    rng.shuffle(reads);

    for (int32_t contig = 0; contig < 3; ++contig) {
        std::vector<uint32_t> candidates;
        for (uint32_t i = 0; i < reads.size(); ++i) {
            if (reads[i].contig == contig)
                candidates.push_back(i);
        }
        const ContigPlan full = planStage(ref, contig, reads);
        ASSERT_FALSE(full.targets.empty()) << contig;
        size_t most = 0;
        for (const auto &claimed : full.readsPerTarget)
            most = std::max(most, claimed.size());
        EXPECT_EQ(most, kMaxReads) << contig;

        for (bool shuffled : {false, true}) {
            if (shuffled)
                rng.shuffle(candidates);
            const ContigPlan part =
                planStage(ref, contig, reads, {}, &candidates);
            EXPECT_EQ(part.contig, contig);
            EXPECT_EQ(part.targets, full.targets) << contig;
            EXPECT_EQ(part.readsPerTarget, full.readsPerTarget)
                << contig << (shuffled ? " shuffled" : "");
        }
    }
}

TEST(PlanStage, ClaimsFollowOverlapPastLongSpans)
{
    // Reads spanning more than kMaxReadLen + 4096 reference bases:
    // a long match with no indel (it makes no target of its own, so
    // the first target it overlaps starts 4,875 bases after it) and
    // a long deletion.  Each target claims, in (position, index)
    // order, every unclaimed read that overlaps it.
    Rng rng(0x5BA7);
    ReferenceGenome ref;
    ref.addContig("c0", ReferenceGenome::randomSequence(20000, rng));
    std::vector<Read> reads = {makeRead(100, "5000M"),
                               makeRead(8000, "50M5000D50M")};
    for (int i = 0; i < 3; ++i) {
        reads.push_back(makeRead(4980, "20M2D30M"));
        reads.push_back(makeRead(15000, "20M2D30M"));
        reads.push_back(makeRead(14000 + 100 * i, "60M"));
    }
    const ContigPlan plan = planStage(ref, 0, reads);
    ASSERT_EQ(plan.readsPerTarget.size(), plan.targets.size());

    std::vector<uint32_t> order(reads.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return reads[a].pos != reads[b].pos ? reads[a].pos < reads[b].pos
                                            : a < b;
    });
    std::vector<char> taken(reads.size(), 0);
    for (size_t t = 0; t < plan.targets.size(); ++t) {
        const IrTarget &target = plan.targets[t];
        std::vector<uint32_t> want;
        for (uint32_t i : order) {
            if (taken[i] ||
                !reads[i].overlaps(0, target.start, target.end))
                continue;
            taken[i] = 1;
            want.push_back(i);
        }
        EXPECT_EQ(plan.readsPerTarget[t], want) << "target " << t;
    }
    // Both long reads were claimed; the match by a target that
    // starts more than kMaxReadLen + 4096 bases after it.
    EXPECT_TRUE(taken[0]);
    EXPECT_TRUE(taken[1]);
    EXPECT_GT(plan.targets.front().start,
              reads[0].pos + kMaxReadLen + 4096);
}

TEST(AssignReads, OverlapRuleAndCap)
{
    std::vector<Read> reads;
    for (int i = 0; i < 300; ++i)
        reads.push_back(makeRead(1000, "50M"));
    reads.push_back(makeRead(2000, "50M")); // outside

    IrTarget target{0, 990, 1100};
    auto idx = assignReads(reads, target);
    EXPECT_EQ(idx.size(), kMaxReads); // capped at 256
    for (uint32_t i : idx)
        EXPECT_TRUE(reads[i].overlaps(0, 990, 1100));
}

TEST(ExtractIndelEvents, PositionsAreAnchored)
{
    // 10M3I20M at pos 500: insertion after reference base 509.
    Read read = makeRead(500, "10M3I20M");
    read.bases = BaseSeq(10, 'A') + BaseSeq("CGT") + BaseSeq(20, 'A');
    auto events = extractIndelEvents(read);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].isInsertion);
    EXPECT_EQ(events[0].anchor, 509);
    EXPECT_EQ(events[0].insertedBases, "CGT");

    // 10M4D20M at pos 500: deletion of [510, 514).
    Read del_read = makeRead(500, "10M4D20M");
    auto del_events = extractIndelEvents(del_read);
    ASSERT_EQ(del_events.size(), 1u);
    EXPECT_FALSE(del_events[0].isInsertion);
    EXPECT_EQ(del_events[0].anchor, 509);
    EXPECT_EQ(del_events[0].delLength, 4);
}

struct InputFixture
{
    ReferenceGenome ref;
    std::vector<Read> reads;
    IrTarget target;
    std::vector<uint32_t> indices;

    InputFixture()
    {
        Rng rng(42);
        ref.addContig("c",
                      ReferenceGenome::randomSequence(5000, rng));
        // Three reads agree on a deletion at 2000, one dissents
        // with an insertion, plus pure-match reads.
        for (int i = 0; i < 3; ++i) {
            Read r = makeRead(1950, "50M3D50M");
            r.bases = ref.slice(0, 1950, 2000) +
                      ref.slice(0, 2003, 2053);
            r.quals.assign(100, 30);
            reads.push_back(r);
        }
        Read ins = makeRead(1960, "40M2I58M");
        ins.bases = ref.slice(0, 1960, 2000) + BaseSeq("GG") +
                    ref.slice(0, 2000, 2058);
        ins.quals.assign(100, 30);
        reads.push_back(ins);
        for (int i = 0; i < 4; ++i) {
            Read m = makeRead(1900 + i * 30, "100M");
            m.bases = ref.slice(0, m.pos, m.pos + 100);
            m.quals.assign(100, 30);
            reads.push_back(m);
        }
        target = {0, 1975, 2028};
        for (uint32_t i = 0; i < reads.size(); ++i)
            indices.push_back(i);
    }
};

TEST(BuildTargetInput, ReferenceFirstAndEventsRanked)
{
    InputFixture fx;
    IrTargetInput input = buildTargetInput(fx.ref, fx.reads,
                                           fx.target, fx.indices);
    // Reference + deletion consensus + insertion consensus.
    ASSERT_EQ(input.numConsensuses(), 3u);
    // Consensus 0 is the raw reference window.
    EXPECT_EQ(input.consensuses[0],
              fx.ref.slice(0, input.windowStart, input.windowEnd));
    // The 3-read deletion outranks the 1-read insertion.
    EXPECT_FALSE(input.events[1].isInsertion);
    EXPECT_EQ(input.events[1].support, 3u);
    EXPECT_TRUE(input.events[2].isInsertion);
    EXPECT_EQ(input.events[2].support, 1u);
    // Length deltas visible in the consensus sizes.
    EXPECT_EQ(input.consensuses[1].size(),
              input.consensuses[0].size() - 3);
    EXPECT_EQ(input.consensuses[2].size(),
              input.consensuses[0].size() + 2);
}

TEST(BuildTargetInput, WindowCoversAllReads)
{
    InputFixture fx;
    IrTargetInput input = buildTargetInput(fx.ref, fx.reads,
                                           fx.target, fx.indices);
    for (uint32_t i : input.readIndices) {
        EXPECT_GE(fx.reads[i].pos, input.windowStart);
        EXPECT_LE(fx.reads[i].endPos(), input.windowEnd);
    }
    input.assertWithinLimits();
    EXPECT_GT(input.worstCaseComparisons(), 0u);
}

TEST(BuildTargetInput, DeduplicatesIdenticalEvents)
{
    InputFixture fx;
    IrTargetInput input = buildTargetInput(fx.ref, fx.reads,
                                           fx.target, fx.indices);
    // Three identical deletions collapse into one consensus.
    for (size_t i = 1; i < input.events.size(); ++i) {
        for (size_t j = i + 1; j < input.events.size(); ++j)
            EXPECT_FALSE(input.events[i].sameEvent(input.events[j]));
    }
}

TEST(BuildTargetInput, CapsConsensusCount)
{
    Rng rng(9);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(4000, rng));
    std::vector<Read> reads;
    // 40 distinct insertion events at slightly different anchors.
    for (int i = 0; i < 40; ++i) {
        Read r = makeRead(1900 + i, "40M2I58M");
        r.bases = BaseSeq(100, 'C');
        r.quals.assign(100, 30);
        reads.push_back(r);
    }
    std::vector<uint32_t> idx;
    for (uint32_t i = 0; i < reads.size(); ++i)
        idx.push_back(i);
    IrTarget target{0, 1930, 2010};
    IrTargetInput input = buildTargetInput(ref, reads, target, idx);
    EXPECT_LE(input.numConsensuses(), kMaxConsensuses);
    input.assertWithinLimits();
}

} // namespace
} // namespace iracc
