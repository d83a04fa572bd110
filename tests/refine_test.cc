/**
 * @file
 * Tests for the alignment-refinement pipeline substrate: coordinate
 * sort, duplicate marking, BQSR, and the assembled pipeline.
 */

#include <gtest/gtest.h>

#include "core/realign_job.hh"
#include "core/workload.hh"
#include "refine/bqsr.hh"
#include "refine/duplicate_marker.hh"
#include "refine/pipeline.hh"
#include "refine/sort.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

Read
makeRead(int32_t contig, int64_t pos, const std::string &name,
         uint8_t qual = 30, bool reverse = false)
{
    Read r;
    r.name = name;
    r.bases = BaseSeq(50, 'A');
    r.quals.assign(50, qual);
    r.contig = contig;
    r.pos = pos;
    r.cigar = Cigar::simpleMatch(50);
    r.reverse = reverse;
    return r;
}

TEST(Sort, OrdersByContigThenPosition)
{
    std::vector<Read> reads = {
        makeRead(1, 500, "c"), makeRead(0, 900, "b"),
        makeRead(0, 100, "a"), makeRead(1, 100, "d"),
    };
    EXPECT_FALSE(isCoordinateSorted(reads));
    coordinateSort(reads);
    EXPECT_TRUE(isCoordinateSorted(reads));
    EXPECT_EQ(reads[0].name, "a");
    EXPECT_EQ(reads[1].name, "b");
    EXPECT_EQ(reads[2].name, "d"); // (contig 1, pos 100)
    EXPECT_EQ(reads[3].name, "c"); // (contig 1, pos 500)
}

TEST(Sort, StableForTies)
{
    std::vector<Read> reads = {makeRead(0, 100, "x"),
                               makeRead(0, 100, "y")};
    coordinateSort(reads);
    EXPECT_EQ(reads[0].name, "x");
    EXPECT_EQ(reads[1].name, "y");
}

TEST(DuplicateMarker, KeepsHighestQuality)
{
    std::vector<Read> reads = {
        makeRead(0, 100, "low", 20),
        makeRead(0, 100, "high", 40),
        makeRead(0, 100, "mid", 30),
    };
    uint64_t marked = markDuplicates(reads);
    EXPECT_EQ(marked, 2u);
    for (const Read &r : reads) {
        if (r.name == "high")
            EXPECT_FALSE(r.duplicate);
        else
            EXPECT_TRUE(r.duplicate);
    }
}

TEST(DuplicateMarker, StrandAndPositionSeparateGroups)
{
    std::vector<Read> reads = {
        makeRead(0, 100, "fwd", 30, false),
        makeRead(0, 100, "rev", 30, true),
        makeRead(0, 101, "next", 30, false),
        makeRead(1, 100, "other", 30, false),
    };
    EXPECT_EQ(markDuplicates(reads), 0u);
    for (const Read &r : reads)
        EXPECT_FALSE(r.duplicate);
}

TEST(Bqsr, LearnsMiscalibration)
{
    // Reads report Q30 (0.1 % error) but actually err at ~3 %.
    Rng rng(3);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(20000, rng));

    std::vector<Read> reads;
    for (int i = 0; i < 400; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(20000 - 100));
        Read r;
        r.name = "r" + std::to_string(i);
        r.bases = ref.slice(0, pos, pos + 100);
        r.quals.assign(100, 30);
        r.pos = pos;
        r.contig = 0;
        r.cigar = Cigar::simpleMatch(100);
        for (size_t b = 0; b < r.bases.size(); ++b) {
            if (rng.chance(0.03)) {
                char wrong;
                do {
                    wrong = kConcreteBases[rng.below(4)];
                } while (wrong == r.bases[b]);
                r.bases[b] = wrong;
            }
        }
        reads.push_back(r);
    }

    BqsrTable table;
    table.observe(ref, reads, {});
    EXPECT_GT(table.totalObservations(), 30000u);

    table.recalibrate(reads);
    // Recalibrated quality should now reflect ~3 % error (Q15),
    // far below the reported Q30.
    double sum = 0;
    uint64_t n = 0;
    for (const Read &r : reads)
        for (uint8_t q : r.quals) {
            sum += q;
            ++n;
        }
    double mean = sum / static_cast<double>(n);
    EXPECT_NEAR(mean, 15.0, 2.0);
}

TEST(Bqsr, SkipsKnownSitesAndDuplicates)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(1000, 'A'));

    // One read with a real variant at position 100 (all mismatches
    // there) plus a duplicate copy.
    Read r = makeRead(0, 90, "r", 30);
    r.bases[10] = 'T'; // lands on reference position 100
    Read dup = r;
    dup.name = "dup";
    dup.duplicate = true;

    Variant known;
    known.contig = 0;
    known.pos = 100;
    known.type = VariantType::Snv;
    known.alt = "T";

    BqsrTable with_mask, without_mask;
    std::vector<Read> reads = {r, dup};
    with_mask.observe(ref, reads, {known});
    without_mask.observe(ref, reads, {});

    // Masking removes exactly one observation (the variant base of
    // the non-duplicate read).
    EXPECT_EQ(with_mask.totalObservations() + 1,
              without_mask.totalObservations());
}

TEST(Bqsr, DinucleotideContextSeparatesErrorRates)
{
    // Errors concentrated after 'G' must be learned per-context:
    // the post-G cells see high mismatch rates while other
    // contexts stay clean.
    Rng rng(17);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(20000, rng));

    std::vector<Read> reads;
    for (int i = 0; i < 300; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(20000 - 100));
        Read r;
        r.name = "r" + std::to_string(i);
        r.bases = ref.slice(0, pos, pos + 100);
        r.quals.assign(100, 30);
        r.pos = pos;
        r.cigar = Cigar::simpleMatch(100);
        for (size_t b = 1; b < r.bases.size(); ++b) {
            if (r.bases[b - 1] == 'G' && rng.chance(0.2)) {
                char wrong;
                do {
                    wrong = kConcreteBases[rng.below(4)];
                } while (wrong == r.bases[b]);
                r.bases[b] = wrong;
            }
        }
        reads.push_back(r);
    }

    BqsrTable table;
    table.observe(ref, reads, {});

    uint32_t g_ctx = static_cast<uint32_t>(baseIndex('G'));
    uint32_t a_ctx = static_cast<uint32_t>(baseIndex('A'));
    uint64_t g_obs = 0, g_mis = 0, a_obs = 0, a_mis = 0;
    for (uint32_t b = 0; b < table.cycleBuckets(); ++b) {
        const BqsrCell &g = table.cell(30, b, g_ctx);
        const BqsrCell &a = table.cell(30, b, a_ctx);
        g_obs += g.observations;
        g_mis += g.mismatches;
        a_obs += a.observations;
        a_mis += a.mismatches;
    }
    ASSERT_GT(g_obs, 1000u);
    ASSERT_GT(a_obs, 1000u);
    double g_rate = static_cast<double>(g_mis) /
                    static_cast<double>(g_obs);
    double a_rate = static_cast<double>(a_mis) /
                    static_cast<double>(a_obs);
    // Post-G mismatch rate injected at 20%; note bases mutated
    // after a G sometimes become the new "previous base" for the
    // following position, so the measured contexts mix slightly.
    EXPECT_GT(g_rate, 0.1);
    EXPECT_LT(a_rate, 0.05);
}

TEST(Bqsr, EmptyBucketsNeutral)
{
    BqsrCell cell;
    // (0+1)/(0+2) = 0.5 error -> Q3.
    EXPECT_EQ(cell.empiricalQuality(), 3);
}

TEST(Pipeline, RunsAllStagesAndTimesThem)
{
    setQuiet(true);
    WorkloadParams params;
    params.chromosomes = {21};
    params.scaleDivisor = 8000;
    params.minContigLength = 30000;
    params.coverage = 20.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosomes[0];
    std::vector<Read> reads = chr.reads;

    RealignStage stage = [](const ReferenceGenome &ref,
                            int32_t contig,
                            std::vector<Read> &rs) {
        SoftwareRealignerConfig cfg;
        cfg.prune = true;
        return RealignSession(
                   makeSoftwareBackend("software", "pruned", cfg))
            .runContig(ref, contig, rs)
            .stats;
    };

    RefineResult res = runRefinementPipeline(
        wl.reference, chr.contig, reads, stage, chr.truth);

    EXPECT_TRUE(isCoordinateSorted(reads));
    EXPECT_GT(res.realign.targets, 0u);
    EXPECT_GT(res.times.total(), 0.0);
    EXPECT_GT(res.times.realignSeconds, 0.0);
    EXPECT_GE(res.times.irFraction(), 0.0);
    EXPECT_LE(res.times.irFraction(), 1.0);
}

} // namespace
} // namespace iracc
