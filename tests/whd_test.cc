/**
 * @file
 * Tests for the weighted-Hamming-distance kernel (Algorithm 1),
 * including the paper's Figure 4 worked example as a golden test
 * and brute-force / pruning equivalence properties.
 */

#include <gtest/gtest.h>

#include "accel/ir_compute.hh"
#include "realign/marshal.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** Build a bare IrTargetInput from raw consensus/read strings. */
IrTargetInput
makeInput(std::vector<BaseSeq> consensuses,
          std::vector<BaseSeq> read_bases,
          std::vector<QualSeq> read_quals)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = static_cast<int64_t>(consensuses[0].size());
    input.consensuses = std::move(consensuses);
    input.events.resize(input.consensuses.size());
    input.readBases = std::move(read_bases);
    input.readQuals = std::move(read_quals);
    for (uint32_t j = 0; j < input.readBases.size(); ++j)
        input.readIndices.push_back(j);
    return input;
}

/**
 * The paper's Figure 4 example: reference CCTTAGA plus consensuses
 * ACCTGAA and TCTGCCT, reads TGAA (quals 10,20,45,10) and CCTC
 * (quals 10,60,30,20).
 */
IrTargetInput
figure4Input()
{
    return makeInput(
        {"CCTTAGA", "ACCTGAA", "TCTGCCT"},
        {"TGAA", "CCTC"},
        {{10, 20, 45, 10}, {10, 60, 30, 20}});
}

TEST(CalcWhd, Figure4ReferenceRead0)
{
    const BaseSeq cons = "CCTTAGA";
    const BaseSeq read = "TGAA";
    const QualSeq quals = {10, 20, 45, 10};
    // Worked values from Figure 4 (left column).
    EXPECT_EQ(calcWhd(cons, read, quals, 0), 85u);
    EXPECT_EQ(calcWhd(cons, read, quals, 1), 75u);
    EXPECT_EQ(calcWhd(cons, read, quals, 2), 30u);
    EXPECT_EQ(calcWhd(cons, read, quals, 3), 65u);
}

TEST(CalcWhd, Figure4ReferenceRead1)
{
    const BaseSeq cons = "CCTTAGA";
    const BaseSeq read = "CCTC";
    const QualSeq quals = {10, 60, 30, 20};
    // Worked values from Figure 4 (right column).
    EXPECT_EQ(calcWhd(cons, read, quals, 0), 20u);
    EXPECT_EQ(calcWhd(cons, read, quals, 1), 80u);
    EXPECT_EQ(calcWhd(cons, read, quals, 2), 120u);
    EXPECT_EQ(calcWhd(cons, read, quals, 3), 120u);
}

TEST(MinWhd, Figure4Grid)
{
    IrTargetInput input = figure4Input();
    MinWhdGrid grid = minWhd(input, false);

    // Figure 4 step 3: the populated min_whd grid.
    EXPECT_EQ(grid.whd(0, 0), 30u); // REF vs read 0
    EXPECT_EQ(grid.whd(0, 1), 20u); // REF vs read 1
    EXPECT_EQ(grid.whd(1, 0), 0u);  // cons1 vs read 0
    EXPECT_EQ(grid.whd(1, 1), 20u); // cons1 vs read 1
    EXPECT_EQ(grid.whd(2, 0), 55u); // cons2 vs read 0
    EXPECT_EQ(grid.whd(2, 1), 30u); // cons2 vs read 1

    // Read 0 fits consensus 1 perfectly at offset 3 (TGAA).
    EXPECT_EQ(grid.idx(1, 0), 3u);
}

TEST(MinWhd, PruningIsResultIdentical)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        // Random target: 1-6 consensuses, 1-12 reads.
        size_t num_cons = 1 + rng.below(6);
        size_t num_reads = 1 + rng.below(12);
        size_t cons_len = 30 + rng.below(100);
        size_t read_len = 5 + rng.below(20);

        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            BaseSeq s;
            QualSeq q;
            for (size_t b = 0; b < read_len; ++b) {
                s.push_back(kConcreteBases[rng.below(4)]);
                q.push_back(static_cast<uint8_t>(rng.range(2, 60)));
            }
            reads.push_back(s);
            quals.push_back(q);
        }

        IrTargetInput input = makeInput(cons, reads, quals);
        WhdStats pruned_stats, full_stats;
        MinWhdGrid pruned = minWhd(input, true, &pruned_stats);
        MinWhdGrid full = minWhd(input, false, &full_stats);
        ASSERT_TRUE(pruned == full) << "trial " << trial;

        // Pruning must never do more comparisons.
        EXPECT_LE(pruned_stats.comparisons, full_stats.comparisons);
        EXPECT_EQ(pruned_stats.comparisonsUnpruned,
                  full_stats.comparisons);
    }
}

TEST(MinWhd, PruningEliminatesMajorityOnRealisticInput)
{
    // Paper Section III-A: pruning removes >50 % of comparisons on
    // realistic inputs (a read matching well at one offset prunes
    // most other offsets quickly).
    Rng rng(7);
    BaseSeq cons;
    for (int b = 0; b < 800; ++b)
        cons.push_back(kConcreteBases[rng.below(4)]);

    std::vector<BaseSeq> reads;
    std::vector<QualSeq> quals;
    for (int j = 0; j < 24; ++j) {
        size_t off = rng.below(800 - 100);
        BaseSeq r = cons.substr(off, 100);
        QualSeq q(100, 30);
        // Sprinkle a couple of errors.
        for (int e = 0; e < 2; ++e)
            r[rng.below(100)] = kConcreteBases[rng.below(4)];
        reads.push_back(r);
        quals.push_back(q);
    }
    IrTargetInput input = makeInput({cons}, reads, quals);
    WhdStats stats;
    minWhd(input, true, &stats);
    EXPECT_GT(stats.prunedFraction(), 0.5);
}

TEST(MinWhd, ReadLongerThanConsensusIsInfeasible)
{
    IrTargetInput input = makeInput(
        {"ACGTACGT", "ACG"}, {"ACGTA"}, {{10, 10, 10, 10, 10}});
    MinWhdGrid grid = minWhd(input, false);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.whd(1, 0), kWhdInfinity);
}

TEST(MinWhd, FirstMinimalOffsetWins)
{
    // Two zero-distance placements; the smaller k must be recorded.
    IrTargetInput input = makeInput({"ACACAC"}, {"ACAC"},
                                    {{10, 10, 10, 10}});
    MinWhdGrid grid = minWhd(input, true);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 0u);
}

TEST(CalcWhd, SaturatesAtWhdMaxInsteadOfAliasingInfinity)
{
    // 16,843,009 mismatches at quality 255 sum to exactly
    // 4,294,967,295 == kWhdInfinity: before saturation was added,
    // this legitimately placed read aliased the "never placed"
    // sentinel and silently lost its placement.  The accumulator
    // must stop one short, at kWhdMax.
    const size_t aliasing_len = 16'843'009;
    BaseSeq cons(aliasing_len, 'A');
    BaseSeq read(aliasing_len, 'C');
    QualSeq quals(aliasing_len, 255);
    EXPECT_EQ(calcWhd(cons, read, quals, 0), kWhdMax);

    // One more base would overflow past the sentinel; still kWhdMax.
    cons.push_back('A');
    read.push_back('C');
    quals.push_back(255);
    EXPECT_EQ(calcWhd(cons, read, quals, 0), kWhdMax);
}

TEST(MinWhd, SaturatedPlacementStaysPlaceable)
{
    const size_t aliasing_len = 16'843'009;
    IrTargetInput input = makeInput({BaseSeq(aliasing_len, 'A')},
                                    {BaseSeq(aliasing_len, 'C')},
                                    {QualSeq(aliasing_len, 255)});
    for (bool prune : {false, true}) {
        MinWhdGrid grid = minWhd(input, prune);
        // The read fits (single offset): it was placed, so the grid
        // must record the saturated distance, not the sentinel.
        EXPECT_EQ(grid.whd(0, 0), kWhdMax) << "prune " << prune;
        EXPECT_EQ(grid.idx(0, 0), 0u);
    }
}

TEST(MinWhd, PruneChecksEveryComparisonLikeHardware)
{
    // All-match read on a homopolymer: once offset 0 establishes a
    // perfect minimum, every later offset must abort on its first
    // comparison (whd 0 >= best 0), exactly like the hardware's
    // per-cycle check of the running-minimum register.  The kernel
    // used to test the bound only after a mismatch, so this input
    // never pruned at all.
    IrTargetInput input =
        makeInput({"AAAAAAA"}, {"AAA"}, {{5, 5, 5}});
    WhdStats stats;
    MinWhdGrid grid = minWhd(input, true, &stats);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 0u);
    // Offset 0: 3 comparisons; offsets 1-4: one comparison each.
    EXPECT_EQ(stats.comparisons, 7u);
    EXPECT_EQ(stats.comparisonsUnpruned, 15u);
    EXPECT_EQ(stats.offsetsEvaluated, 5u);
    EXPECT_EQ(stats.offsetsPruned, 4u);
    EXPECT_LE(stats.comparisons, stats.comparisonsUnpruned);
}

TEST(MinWhd, CountersMatchScalarDatapathBitForBit)
{
    Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        size_t num_cons = 1 + rng.below(4);
        size_t num_reads = 1 + rng.below(8);
        size_t cons_len = 40 + rng.below(80);

        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            // Mix perfect placements (prune-heavy) with noise.
            size_t len = 8 + rng.below(24);
            size_t off = rng.below(cons_len - len + 1);
            BaseSeq s = cons[rng.below(num_cons)].substr(off, len);
            if (rng.chance(0.3))
                s[rng.below(len)] = kConcreteBases[rng.below(4)];
            QualSeq q;
            for (size_t b = 0; b < len; ++b)
                q.push_back(static_cast<uint8_t>(rng.range(0, 60)));
            reads.push_back(s);
            quals.push_back(q);
        }
        IrTargetInput input = makeInput(cons, reads, quals);
        MarshalledTarget m = marshalTarget(input);

        for (bool prune : {false, true}) {
            WhdStats sw;
            minWhd(input, prune, &sw);
            IrComputeResult hw = irCompute(m, 1, prune);
            EXPECT_EQ(sw.comparisons, hw.whd.comparisons)
                << "trial " << trial << " prune " << prune;
            EXPECT_EQ(sw.comparisonsUnpruned,
                      hw.whd.comparisonsUnpruned);
            EXPECT_EQ(sw.offsetsEvaluated, hw.whd.offsetsEvaluated);
            EXPECT_EQ(sw.offsetsPruned, hw.whd.offsetsPruned);
            EXPECT_LE(sw.comparisons, sw.comparisonsUnpruned);
        }
    }
}

/** Scalar-vs-everything equality of one raw sweep configuration. */
void
expectSweepBitEqual(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, bool prune, uint32_t chunk,
                    const std::string &where)
{
    const WhdSweepResult want = whdSweep(cons, m, read, qual, n,
                                         prune, chunk,
                                         WhdKernel::Scalar);
    for (WhdKernel kernel : supportedWhdKernels()) {
        const WhdSweepResult got =
            whdSweep(cons, m, read, qual, n, prune, chunk, kernel);
        const std::string ctx =
            where + " kernel=" + whdKernelName(kernel) +
            " prune=" + (prune ? "on" : "off") +
            " chunk=" + std::to_string(chunk);
        EXPECT_EQ(got.best, want.best) << ctx;
        EXPECT_EQ(got.bestK, want.bestK) << ctx;
        EXPECT_EQ(got.comparisons, want.comparisons) << ctx;
        EXPECT_EQ(got.offsetsPruned, want.offsetsPruned) << ctx;
        EXPECT_EQ(got.chunks, want.chunks) << ctx;
    }
}

TEST(DispatchSweep, BitEqualOnLaneBoundaryShapes)
{
    // Offset counts straddle the 16-lane blocks of the unpruned
    // sweeps (full blocks, scalar tails, tail-only); read lengths
    // straddle the pruned block sizes (8 generic, 32 AVX2) and the
    // datapath chunk widths, including the one-vector width-32
    // chunk of the AVX2 per-chunk sweep and its neighbours.
    const size_t offset_counts[] = {1, 2, 15, 16, 17, 32, 33, 40};
    const size_t read_lens[] = {1,  7,  8,  9,  16, 31, 32,
                                33, 63, 64, 65, 100, 256};
    Rng rng(0xD15B);
    for (size_t offsets : offset_counts) {
        for (size_t n : read_lens) {
            const size_t m = n + offsets - 1;
            BaseSeq cons;
            for (size_t b = 0; b < m; ++b)
                cons.push_back(kConcreteBases[rng.below(4)]);
            // A read that nearly matches somewhere keeps pruning
            // hot; zero qualities exercise equality crossings.
            BaseSeq read = cons.substr(rng.below(offsets), n);
            if (n > 1 && rng.chance(0.5))
                read[rng.below(n)] = kConcreteBases[rng.below(4)];
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(
                    rng.chance(0.15) ? 0 : rng.range(0, 60)));

            const uint8_t *cp =
                reinterpret_cast<const uint8_t *>(cons.data());
            const uint8_t *rp =
                reinterpret_cast<const uint8_t *>(read.data());
            const std::string where = "offsets=" +
                                      std::to_string(offsets) +
                                      " n=" + std::to_string(n);
            for (bool prune : {false, true})
                for (uint32_t chunk : {1u, 8u, 31u, 32u, 33u, 64u})
                    expectSweepBitEqual(cp, m, rp, qual.data(), n,
                                        prune, chunk, where);
        }
    }
}

TEST(DispatchSweep, SaturationNearWhdMaxBitEqual)
{
    // Long enough that max-quality mismatches cross kWhdMax on the
    // final comparison: the saturating fold, the 16-bit/32-bit
    // accumulator spills of the vectorized paths, and the pruned
    // paths' plain-sum crossing detection all get stressed at once.
    // 255 * 16'843'009 = 2^32 - 1 > kWhdMax, one step earlier is
    // still below.
    const size_t n = 16'843'009;
    const size_t offsets = 17; // one full lane block + scalar tail
    const BaseSeq cons(n + offsets - 1, 'A');
    const BaseSeq read(n, 'C');
    const QualSeq qual(n, 255);
    const uint8_t *cp =
        reinterpret_cast<const uint8_t *>(cons.data());
    const uint8_t *rp =
        reinterpret_cast<const uint8_t *>(read.data());

    const WhdSweepResult ref = whdSweep(cp, cons.size(), rp,
                                        qual.data(), n, false, 1,
                                        WhdKernel::Scalar);
    EXPECT_EQ(ref.best, kWhdMax);
    EXPECT_EQ(ref.bestK, 0u);
    for (bool prune : {false, true})
        expectSweepBitEqual(cp, cons.size(), rp, qual.data(), n,
                            prune, 1, "saturation");
}

TEST(DispatchSweep, PrunedAbortAtEveryBlockLane)
{
    // Two offsets.  The read alternates A/C, so each consensus base
    // past the first can mismatch offset 1 while matching offset 0
    // (cons[j] = read[j]) or mismatch both ('G').  Offset 1 then
    // mismatches every comparison, its running sum is the plain
    // quality prefix, and offset 0's WHD (the best when offset 1
    // runs) is the quality sum over a freely chosen base set.  That
    // set is sized to put offset 1's abort on comparison `abort`:
    // at exact equality (prefix == best), or one base after the
    // prefix sits one short of best.  Every comparison of every
    // read length is targeted: each lane 0-31 of the first and of
    // later 32-byte blocks, plus the scalar tail.  Qualities are Q
    // except a 1 on the last base; Q = 255 fills a whole block
    // with 255s, the widest 16-bit prefix (8160).
    for (size_t n : {32u, 33u, 64u, 100u}) {
        for (int q_all : {30, 255}) {
            QualSeq qual(n, static_cast<uint8_t>(q_all));
            qual[n - 1] = 1;
            BaseSeq read;
            for (size_t p = 0; p < n; ++p)
                read.push_back(p % 2 ? 'C' : 'A');
            for (size_t abort = 0; abort < n; ++abort) {
                for (bool later : {false, true}) {
                    if (later && abort == 0)
                        continue; // no comparison before the first
                    // Bases of offset 0 that mismatch.
                    std::vector<bool> worse(n, false);
                    if (!later && abort + 1 < n) {
                        // best = q * (abort + 1) = prefix(abort).
                        for (size_t p = 0; p <= abort; ++p)
                            worse[p] = true;
                    } else if (later && abort + 1 < n) {
                        // best = q * abort + 1 = prefix(abort-1) + 1.
                        for (size_t p = 0; p < abort; ++p)
                            worse[p] = true;
                        worse[n - 1] = true;
                    } else {
                        // Last comparison: best = total (equality),
                        // or prefix(n - 2) + 1 -- the same sum.
                        std::fill(worse.begin(), worse.end(), true);
                    }
                    BaseSeq cons;
                    for (size_t j = 0; j < n; ++j)
                        cons.push_back(worse[j] ? 'G' : read[j]);
                    cons.push_back('G');
                    uint64_t best = 0;
                    for (size_t p = 0; p < n; ++p)
                        best += worse[p] ? qual[p] : 0;

                    const uint8_t *cp =
                        reinterpret_cast<const uint8_t *>(cons.data());
                    const uint8_t *rp =
                        reinterpret_cast<const uint8_t *>(read.data());
                    const std::string where =
                        "n=" + std::to_string(n) +
                        " q=" + std::to_string(q_all) +
                        " abort=" + std::to_string(abort) +
                        (later ? " later" : " equal");
                    const WhdSweepResult ref =
                        whdSweep(cp, cons.size(), rp, qual.data(), n,
                                 true, 1, WhdKernel::Scalar);
                    // The construction lands where it claims.
                    ASSERT_EQ(ref.best, best) << where;
                    ASSERT_EQ(ref.bestK, 0u) << where;
                    ASSERT_EQ(ref.offsetsPruned, 1u) << where;
                    ASSERT_EQ(ref.comparisons, n + abort + 1) << where;
                    expectSweepBitEqual(cp, cons.size(), rp,
                                        qual.data(), n, true, 1, where);
                }
            }
        }
    }
}

TEST(DispatchSweep, MinWhdGridAndStatsMatchScalarKernel)
{
    Rng rng(0xFACE);
    for (int trial = 0; trial < 10; ++trial) {
        const size_t num_cons = 1 + rng.below(3);
        const size_t num_reads = 1 + rng.below(6);
        const size_t cons_len = 30 + rng.below(90);
        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            const size_t len = 4 + rng.below(30);
            const size_t off = rng.below(cons_len - len + 1);
            BaseSeq s = cons[rng.below(num_cons)].substr(off, len);
            if (rng.chance(0.4))
                s[rng.below(len)] = kConcreteBases[rng.below(4)];
            QualSeq q;
            for (size_t b = 0; b < len; ++b)
                q.push_back(static_cast<uint8_t>(rng.range(0, 60)));
            reads.push_back(s);
            quals.push_back(q);
        }
        IrTargetInput input = makeInput(cons, reads, quals);
        MarshalledTarget marshalled = marshalTarget(input);

        for (bool prune : {false, true}) {
            ScopedWhdKernel pin(WhdKernel::Scalar);
            WhdStats want_stats;
            const MinWhdGrid want =
                minWhd(input, prune, &want_stats);
            std::vector<IrComputeResult> want_hw;
            for (uint32_t width : {1u, 8u, 32u})
                want_hw.push_back(
                    irCompute(marshalled, width, prune));

            for (WhdKernel kernel : supportedWhdKernels()) {
                ScopedWhdKernel scope(kernel);
                WhdStats got_stats;
                const MinWhdGrid got =
                    minWhd(input, prune, &got_stats);
                EXPECT_TRUE(got == want)
                    << "trial " << trial << " kernel "
                    << whdKernelName(kernel) << " prune " << prune;
                EXPECT_EQ(got_stats.comparisons,
                          want_stats.comparisons);
                EXPECT_EQ(got_stats.comparisonsUnpruned,
                          want_stats.comparisonsUnpruned);
                EXPECT_EQ(got_stats.offsetsEvaluated,
                          want_stats.offsetsEvaluated);
                EXPECT_EQ(got_stats.offsetsPruned,
                          want_stats.offsetsPruned);

                size_t w = 0;
                for (uint32_t width : {1u, 8u, 32u}) {
                    const IrComputeResult hw =
                        irCompute(marshalled, width, prune);
                    const IrComputeResult &ref = want_hw[w++];
                    EXPECT_EQ(hw.whd.comparisons,
                              ref.whd.comparisons)
                        << "width " << width << " kernel "
                        << whdKernelName(kernel);
                    EXPECT_EQ(hw.whd.offsetsPruned,
                              ref.whd.offsetsPruned);
                    EXPECT_EQ(hw.hdcCycles, ref.hdcCycles);
                    EXPECT_EQ(hw.selectorCycles,
                              ref.selectorCycles);
                    EXPECT_EQ(hw.bestConsensus, ref.bestConsensus);
                    EXPECT_EQ(hw.output.realignFlags,
                              ref.output.realignFlags);
                    EXPECT_EQ(hw.output.newPositions,
                              ref.output.newPositions);
                }
            }
        }
    }
}

TEST(WorstCase, ComplexityFormula)
{
    // Section II-C: C=32, R=256, m=2048, n=250 gives the paper's
    // "astonishing" 3,684,352,000 comparisons for one target.
    uint64_t c = 32, r = 256, m = 2048, n = 250;
    uint64_t comparisons = c * r * (m - n + 1) * n;
    EXPECT_EQ(comparisons, 3'684'352'000ull);
}

} // namespace
} // namespace iracc
