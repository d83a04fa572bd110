/**
 * @file
 * Tests for the weighted-Hamming-distance kernel (Algorithm 1),
 * including the paper's Figure 4 worked example as a golden test
 * and brute-force / pruning equivalence properties.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "accel/ir_compute.hh"
#include "realign/marshal.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "testing/differential.hh"
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

/**
 * Scalar-vs-everything equality of one raw sweep configuration:
 * offsets [kBegin, kEnd) from state @p from.
 */
void
expectSweepBitEqual(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, bool prune, uint32_t chunk,
                    const std::string &where, size_t kBegin = 0,
                    size_t kEnd = kWhdSweepEnd,
                    const WhdSweepResult &from = WhdSweepResult())
{
    const WhdSweepResult want =
        whdSweep(cons, m, read, qual, n, prune, chunk,
                 SimdKernel::Scalar, kBegin, kEnd, from);
    for (SimdKernel kernel : supportedSimdKernels()) {
        const WhdSweepResult got = whdSweep(cons, m, read, qual, n,
                                            prune, chunk, kernel,
                                            kBegin, kEnd, from);
        const std::string ctx =
            where + " kernel=" + simdKernelName(kernel) +
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
    // and pruned sweeps (full blocks, scalar or padded tails,
    // tail-only); read lengths straddle the lane sweeps' 8-base
    // exit checks and the datapath chunk widths, among them fig8's
    // widths 2-32, 300 (one chunk wider than any lane read) and
    // their neighbours.  96 and 256 are whole-chunk reads at width
    // 32, and 288 is past the lane sweeps' read length, so it runs
    // the scalar reference under every kernel.
    const size_t offset_counts[] = {1, 2,  3,  4,  5,  6,  7, 8,
                                    9, 15, 16, 17, 32, 33, 40};
    const size_t read_lens[] = {1,  7,  8,  9,  16,  31,  32, 33,
                                63, 64, 65, 96, 100, 256, 288};
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
                for (uint32_t chunk :
                     {1u, 2u, 4u, 8u, 16u, 31u, 32u, 33u, 64u, 300u})
                    expectSweepBitEqual(cp, m, rp, qual.data(), n,
                                        prune, chunk, where);
        }
    }
}

/** Exact (unclamped) WHD of one offset. */
uint64_t
plainWhd(const uint8_t *cons_k, const uint8_t *read, const uint8_t *qual,
         size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += cons_k[p] != read[p] ? qual[p] : 0;
    return sum;
}

/**
 * Full 32-base chunk of one offset at whose end the running WHD
 * first reaches @p bound (the per-chunk prune point); n / 32 when
 * no full chunk does.
 */
size_t
chunk32Abort(const uint8_t *cons_k, const uint8_t *read,
             const uint8_t *qual, size_t n, uint64_t bound)
{
    uint64_t sum = 0;
    for (size_t c = 0; c + 32 <= n; c += 32) {
        sum += plainWhd(cons_k + c, read + c, qual + c, 32);
        if (sum >= bound)
            return c / 32;
    }
    return n / 32;
}

TEST(DispatchSweep, OffsetGroupResolution)
{
    // The pruned sweeps decide consecutive offsets together
    // against the minimum at the block's start, and a survivor
    // lowers it for the offsets after it (whd_simd.cc note 4).
    // These shapes pin the cases where that minimum is not final:
    // a new minimum at every offset, and a survivor that moves the
    // next offset's abort to an earlier chunk.
    const uint32_t chunks[] = {1u, 8u, 32u};
    for (size_t n : {31u, 32u, 33u, 64u, 96u, 100u, 256u}) {
        const std::string len = "n=" + std::to_string(n);

        // Every offset survives: offset k's window holds 9 - k
        // mismatching bases, a new minimum each time.  The first
        // group also starts right after the offset that had no
        // minimum to compare against.
        {
            const size_t offsets = 9;
            BaseSeq cons(n + offsets - 1, 'A');
            std::fill(cons.begin(), cons.begin() + offsets, 'G');
            const BaseSeq read(n, 'A');
            const QualSeq qual(n, 30);
            const uint8_t *cp =
                reinterpret_cast<const uint8_t *>(cons.data());
            const uint8_t *rp =
                reinterpret_cast<const uint8_t *>(read.data());
            const WhdSweepResult ref =
                whdSweep(cp, cons.size(), rp, qual.data(), n, true, 32,
                         SimdKernel::Scalar);
            ASSERT_EQ(ref.offsetsPruned, 0u) << len;
            ASSERT_EQ(ref.bestK, offsets - 1) << len;
            for (uint32_t chunk : chunks)
                expectSweepBitEqual(cp, cons.size(), rp, qual.data(), n,
                                    true, chunk, "all survive " + len);
        }

        // A survivor at offset s, for s in 1-8: lanes 0-7 of the
        // block after the first offset, which runs alone.  Its new
        // minimum moves offset s + 1's abort to an earlier chunk.
        // Exact: the survivor matches (minimum 0), so every later
        // offset aborts at chunk 0.  Chunk0: the first chunk
        // has quality 1 and holds the survivor's 30 mismatches, so
        // random later offsets clear chunk 0 and abort at chunk 1,
        // where against the older minimum they ran on.  A move
        // needs two full chunks (three for Chunk0, whose chunk 1 is
        // the one moved to).
        for (bool exact : {true, false}) {
            if (n < (exact ? 64u : 96u))
                continue;
            for (size_t s = 1; s <= 8; ++s) {
                Rng rng(0x6A0F + 131 * s + n + exact);
                const size_t offsets = s + 8;
                BaseSeq read;
                for (size_t p = 0; p < n; ++p)
                    read.push_back(kConcreteBases[rng.below(4)]);
                QualSeq qual(n, 40);
                if (!exact)
                    std::fill(qual.begin(), qual.begin() + 32, 1);
                BaseSeq cons;
                for (size_t b = 0; b < n + offsets - 1; ++b)
                    cons.push_back(kConcreteBases[rng.below(4)]);
                for (size_t p = 0; p < n; ++p) {
                    const bool miss = !exact && p < 30;
                    cons[s + p] = miss ? (read[p] == 'A' ? 'C' : 'A')
                                       : read[p];
                }
                const uint8_t *cp =
                    reinterpret_cast<const uint8_t *>(cons.data());
                const uint8_t *rp =
                    reinterpret_cast<const uint8_t *>(read.data());
                uint64_t before = ~uint64_t{0};
                for (size_t k = 0; k < s; ++k)
                    before = std::min(before, plainWhd(cp + k, rp,
                                                       qual.data(), n));
                const uint64_t after =
                    plainWhd(cp + s, rp, qual.data(), n);
                const std::string where =
                    len + " s=" + std::to_string(s) +
                    (exact ? " exact" : " chunk0");
                // The construction lands where it claims.
                ASSERT_LT(after, before) << where;
                ASSERT_EQ(after, exact ? 0u : 30u) << where;
                const size_t moved = chunk32Abort(
                    cp + s + 1, rp, qual.data(), n, after);
                ASSERT_EQ(moved, exact ? 0u : 1u) << where;
                ASSERT_GT(chunk32Abort(cp + s + 1, rp, qual.data(), n,
                                       before),
                          moved)
                    << where;
                for (uint32_t chunk : chunks)
                    expectSweepBitEqual(cp, cons.size(), rp,
                                        qual.data(), n, true, chunk,
                                        where);
            }
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
                                        SimdKernel::Scalar);
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
    // read length is targeted, in each 8-base step between the lane
    // sweeps' exit checks and each 32-byte block.  Qualities are Q
    // except a 1 on the last base; Q = 255 gives the largest
    // per-comparison steps.
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
                                 true, 1, SimdKernel::Scalar);
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
            ScopedSimdKernel pin(SimdKernel::Scalar);
            WhdStats want_stats;
            const MinWhdGrid want =
                minWhd(input, prune, &want_stats);
            std::vector<IrComputeResult> want_hw;
            for (uint32_t width : {1u, 8u, 32u})
                want_hw.push_back(
                    irCompute(marshalled, width, prune));

            for (SimdKernel kernel : supportedSimdKernels()) {
                ScopedSimdKernel scope(kernel);
                WhdStats got_stats;
                const MinWhdGrid got =
                    minWhd(input, prune, &got_stats);
                EXPECT_TRUE(got == want)
                    << "trial " << trial << " kernel "
                    << simdKernelName(kernel) << " prune " << prune;
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
                        << simdKernelName(kernel);
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

TEST(DispatchSweep, RangeResumesExactly)
{
    // Sweep [0, k), then [k, end) from the returned state: every
    // split k of every shape must equal the one-shot sweep, under
    // every kernel and width.  Offset counts 1-13 put splits at
    // the start, middle and end of a lane block, at a pair's last
    // offset (k = offsets - 1) and at both ends; "survive" makes
    // every offset a new minimum, so the state carried across a
    // split is one the range must beat.
    Rng rng(0x5E5A);
    for (size_t offsets : {1u, 2u, 4u, 5u, 8u, 9u, 13u}) {
        for (size_t n : {1u, 7u, 32u, 33u, 64u, 100u}) {
            for (bool survive : {false, true}) {
                const size_t m = n + offsets - 1;
                BaseSeq cons;
                BaseSeq read;
                QualSeq qual;
                if (survive) {
                    // Offset k's window holds offsets - k leading
                    // G's against an all-A read (fewer each step).
                    cons.assign(m, 'A');
                    std::fill(cons.begin(),
                              cons.begin() +
                                  std::min(offsets, m),
                              'G');
                    read.assign(n, 'A');
                    qual.assign(n, 30);
                } else {
                    for (size_t b = 0; b < m; ++b)
                        cons.push_back(kConcreteBases[rng.below(4)]);
                    read = cons.substr(rng.below(offsets), n);
                    if (rng.chance(0.5))
                        read[rng.below(n)] =
                            kConcreteBases[rng.below(4)];
                    for (size_t b = 0; b < n; ++b)
                        qual.push_back(static_cast<uint8_t>(
                            rng.chance(0.15) ? 0 : rng.range(0, 60)));
                }
                const uint8_t *cp =
                    reinterpret_cast<const uint8_t *>(cons.data());
                const uint8_t *rp =
                    reinterpret_cast<const uint8_t *>(read.data());
                for (bool prune : {false, true}) {
                    for (uint32_t chunk : {1u, 8u, 31u, 32u, 33u}) {
                        const WhdSweepResult want =
                            whdSweep(cp, m, rp, qual.data(), n, prune,
                                     chunk, SimdKernel::Scalar);
                        for (SimdKernel kernel : supportedSimdKernels()) {
                            for (size_t k = 0; k <= offsets; ++k) {
                                const WhdSweepResult head = whdSweep(
                                    cp, m, rp, qual.data(), n, prune,
                                    chunk, kernel, 0, k);
                                const WhdSweepResult got = whdSweep(
                                    cp, m, rp, qual.data(), n, prune,
                                    chunk, kernel, k, kWhdSweepEnd,
                                    head);
                                const std::string ctx =
                                    "offsets=" + std::to_string(offsets) +
                                    " n=" + std::to_string(n) +
                                    (survive ? " survive" : " random") +
                                    " kernel=" + simdKernelName(kernel) +
                                    " prune=" + std::to_string(prune) +
                                    " chunk=" + std::to_string(chunk) +
                                    " k=" + std::to_string(k);
                                EXPECT_EQ(got.best, want.best) << ctx;
                                EXPECT_EQ(got.bestK, want.bestK) << ctx;
                                EXPECT_EQ(got.comparisons,
                                          want.comparisons) << ctx;
                                EXPECT_EQ(got.offsetsPruned,
                                          want.offsetsPruned) << ctx;
                                EXPECT_EQ(got.chunks, want.chunks)
                                    << ctx;
                            }
                        }
                    }
                }
            }
        }
    }
}

/** Consensus 0 with bases [at, at + del) replaced by @p ins. */
BaseSeq
withIndel(const BaseSeq &ref, size_t at, size_t del,
          const BaseSeq &ins)
{
    BaseSeq alt = ref;
    alt.replace(at, del, ins);
    return alt;
}

BaseSeq
randomSeq(Rng &rng, size_t len)
{
    BaseSeq s;
    for (size_t b = 0; b < len; ++b)
        s.push_back(kConcreteBases[rng.below(4)]);
    return s;
}

/**
 * A target over @p cons with reads of the given lengths, each
 * sampled from a random consensus (with a point error half the
 * time) or random where it fits none.  Qualities come from
 * @p qual_of(rng).
 */
template <typename QualFn>
IrTargetInput
indelTarget(Rng &rng, std::vector<BaseSeq> cons,
            std::initializer_list<size_t> read_lens, int per_len,
            QualFn qual_of)
{
    std::vector<BaseSeq> reads;
    std::vector<QualSeq> quals;
    for (size_t len : read_lens) {
        for (int r = 0; r < per_len; ++r) {
            const BaseSeq &src = cons[rng.below(cons.size())];
            BaseSeq read = len <= src.size()
                               ? src.substr(rng.below(
                                                src.size() - len + 1),
                                            len)
                               : randomSeq(rng, len);
            if (rng.chance(0.5))
                read[rng.below(len)] = kConcreteBases[rng.below(4)];
            QualSeq q;
            for (size_t b = 0; b < len; ++b)
                q.push_back(qual_of(rng));
            reads.push_back(read);
            quals.push_back(q);
        }
    }
    return makeInput(std::move(cons), std::move(reads),
                     std::move(quals));
}

uint8_t
typicalQual(Rng &rng)
{
    return static_cast<uint8_t>(rng.chance(0.1) ? 0
                                                : rng.range(2, 41));
}

/** Host-swept offsets of @p input's pruned target sweep. */
WhdStats
sharedSweepStats(const IrTargetInput &input, uint32_t chunk)
{
    WhdTarget rows;
    rows.load(input);
    MinWhdGrid grid(0, 0);
    WhdStats stats;
    sweepTarget(rows, true, chunk, SimdKernel::Scalar, grid, stats);
    return stats;
}

/**
 * sweepTarget under every kernel at pruneChunk {1, 8, 32} equals
 * the per-pair scalar loop (grid, counters, chunks, pairs), and so
 * do irCompute's calculator cycles under every kernel.
 */
void
expectTargetSweepExact(const IrTargetInput &input,
                       const std::string &where)
{
    const difftest::DiffResult r = difftest::diffTargetSweep(input);
    EXPECT_TRUE(r.ok) << where << ": " << r.variant << ": "
                      << r.detail;
    const MarshalledTarget marshalled = marshalTarget(input);
    for (uint32_t width : {1u, 8u, 32u}) {
        const difftest::PairSweep want =
            difftest::sweepPairsScalar(input, true, width);
        for (SimdKernel kernel : supportedSimdKernels()) {
            ScopedSimdKernel pin(kernel);
            EXPECT_EQ(irCompute(marshalled, width, true).hdcCycles,
                      want.stats.offsetsEvaluated + want.work.chunks +
                          2 * want.work.pairs)
                << where << " width " << width << " kernel "
                << simdKernelName(kernel);
        }
    }
}

TEST(TargetSweep, IndelsAtWindowStartMiddleAndEnd)
{
    for (uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(0x7A56 + seed);
        const BaseSeq ref = randomSeq(rng, 150);
        std::vector<BaseSeq> cons = {ref};
        for (size_t at : {0u, 1u, 75u, 140u, 149u}) {
            cons.push_back(withIndel(ref, at, 1 + rng.below(10), ""));
            cons.push_back(withIndel(ref, at, 0,
                                     randomSeq(rng, 1 + rng.below(10))));
        }
        cons.push_back(ref + randomSeq(rng, 4)); // insertion at end
        IrTargetInput input = indelTarget(
            rng, cons, {1, 20, 60, 101, 140, 150}, 4, typicalQual);
        expectTargetSweepExact(input, "seed " + std::to_string(seed));
        // The alternatives did share consensus 0's sweep.
        const WhdStats st = sharedSweepStats(input, 1);
        EXPECT_LT(st.offsetsSwept, st.offsetsEvaluated);
        EXPECT_EQ(st.offsetsSwept, sharedSweepStats(input, 32)
                                       .offsetsSwept);
    }
}

TEST(TargetSweep, ConsensusEqualToReferenceSweepsNothing)
{
    Rng rng(0xC0C0);
    const BaseSeq ref = randomSeq(rng, 120);
    IrTargetInput input =
        indelTarget(rng, {ref, ref}, {1, 30, 119, 120}, 3, typicalQual);
    expectTargetSweepExact(input, "copy of consensus 0");
    // Consensus 1 takes every offset from consensus 0.
    const WhdStats st = sharedSweepStats(input, 1);
    EXPECT_EQ(st.offsetsSwept * 2, st.offsetsEvaluated);
}

TEST(TargetSweep, SuffixReusedOnlyWhenMinimaAgree)
{
    // Consensus 1 deletes ref[50, 55).  P = 50 and S = 45 are pinned
    // by the bases either side of the deletion.  For 20-base reads
    // consensus 1 sweeps offsets [31, 50) (the window touches the
    // deletion) and its suffix [50, 76) is consensus 0's [55, 81).
    Rng rng(0x5FF1);
    BaseSeq ref = randomSeq(rng, 100);
    ref.replace(49, 7, "GACGTAC"); // ref[50] != ref[55], ref[49] != ref[54]
    const BaseSeq alt = withIndel(ref, 50, 5, "");
    // Read A matches consensus 0 (and 1) at offset 10: both reach
    // the suffix with minimum 0, so consensus 1 reuses it.  Read B
    // spans the deletion on consensus 1 only: its minimum 0 at
    // offset 40 is below consensus 0's at offset 55, so consensus 1
    // sweeps its suffix.
    const BaseSeq a = ref.substr(10, 20);
    const BaseSeq b = alt.substr(40, 20);
    ASSERT_NE(ref.find(b), 40u);
    QualSeq q;
    for (size_t p = 0; p < 20; ++p)
        q.push_back(static_cast<uint8_t>(10 + p));
    IrTargetInput input = makeInput({ref, alt}, {a, b}, {q, q});
    expectTargetSweepExact(input, "suffix");
    const MinWhdGrid grid = minWhd(input, true);
    ASSERT_EQ(grid.whd(1, 1), 0u);
    ASSERT_EQ(grid.idx(1, 1), 40u);
    ASSERT_GT(grid.whd(0, 1), 0u);
    // Consensus 0: 81 offsets per read.  Consensus 1: 19 for read A,
    // 19 + 26 for read B.
    EXPECT_EQ(sharedSweepStats(input, 1).offsetsSwept,
              81u * 2 + 19 + 45);
    EXPECT_EQ(sharedSweepStats(input, 32).offsetsSwept,
              81u * 2 + 19 + 45);
}

TEST(TargetSweep, InsertionLongerThanReferenceWithLongerReads)
{
    // Reads of 101-110 bases fit only the insertion consensuses:
    // consensus 0 has no sweep of them to share.
    Rng rng(0x1A5E);
    const BaseSeq ref = randomSeq(rng, 100);
    std::vector<BaseSeq> cons = {ref};
    cons.push_back(withIndel(ref, 0, 0, randomSeq(rng, 10)));
    cons.push_back(withIndel(ref, 50, 0, randomSeq(rng, 8)));
    cons.push_back(withIndel(ref, 100, 0, randomSeq(rng, 12)));
    cons.push_back(withIndel(ref, 30, 4, ""));
    IrTargetInput input = indelTarget(rng, cons, {40, 99, 100, 101, 105, 110},
                                      3, typicalQual);
    expectTargetSweepExact(input, "longer reads");
}

TEST(TargetSweep, TandemRepeatPrefixAndSuffixOverlap)
{
    // Indels inside repeats: the bytes a consensus shares with
    // consensus 0 at its start and at its end overlap.
    Rng rng(0x7A7A);
    const BaseSeq left = randomSeq(rng, 40);
    const BaseSeq right = randomSeq(rng, 40);
    std::vector<BaseSeq> refs = {left + BaseSeq(30, 'A') + right,
                                 left + "ACACACACACACACACAC" + right,
                                 BaseSeq(90, 'T')};
    for (size_t r = 0; r < refs.size(); ++r) {
        const BaseSeq &ref = refs[r];
        std::vector<BaseSeq> cons = {ref};
        cons.push_back(withIndel(ref, 44, 2, ""));
        cons.push_back(withIndel(ref, 45, 4, ""));
        cons.push_back(withIndel(ref, 45, 0, ref.substr(43, 2)));
        cons.push_back(withIndel(ref, 50, 0, ref.substr(50, 6)));
        IrTargetInput input = indelTarget(rng, cons, {1, 10, 40, 80}, 4,
                                          typicalQual);
        expectTargetSweepExact(input, "repeat " + std::to_string(r));
        // The construction lands where it claims: every shared
        // prefix and suffix overlap.
        WhdTarget rows;
        rows.load(input);
        MinWhdGrid grid(0, 0);
        WhdStats stats;
        sweepTarget(rows, true, 1, SimdKernel::Scalar, grid, stats);
        for (size_t i = 1; i < cons.size(); ++i)
            EXPECT_GT(rows.prefix[i] + rows.suffix[i],
                      std::min(cons[i].size(), ref.size()))
                << "repeat " << r << " consensus " << i;
    }
}

TEST(TargetSweep, SingleConsensus)
{
    Rng rng(0x51C0);
    IrTargetInput input = indelTarget(rng, {randomSeq(rng, 90)},
                                      {1, 45, 90, 91}, 3, typicalQual);
    expectTargetSweepExact(input, "single");
    const WhdStats st = sharedSweepStats(input, 1);
    EXPECT_EQ(st.offsetsSwept, st.offsetsEvaluated);
}

TEST(TargetSweep, PhredZeroAndSaturatingQualities)
{
    Rng rng(0x0FF0);
    const BaseSeq ref = randomSeq(rng, 130);
    std::vector<BaseSeq> cons = {ref};
    for (size_t at : {0u, 64u, 125u}) {
        cons.push_back(withIndel(ref, at, 3, ""));
        cons.push_back(withIndel(ref, at, 0, "GATTACA"));
    }
    auto zero = [](Rng &) { return uint8_t{0}; };
    auto top = [](Rng &) { return uint8_t{255}; };
    auto mixed = [](Rng &r) {
        return static_cast<uint8_t>(r.chance(0.5) ? 0 : 255);
    };
    expectTargetSweepExact(
        indelTarget(rng, cons, {1, 33, 64, 120}, 4, zero), "phred 0");
    expectTargetSweepExact(
        indelTarget(rng, cons, {1, 33, 64, 120}, 4, top), "phred 255");
    expectTargetSweepExact(
        indelTarget(rng, cons, {1, 33, 64, 120}, 4, mixed), "mixed");
}

/** @p ref with ref[at] != ref[at + del]: the deletion pins P = at. */
BaseSeq
pinnedDeletion(Rng &rng, BaseSeq ref, size_t at, size_t del)
{
    while (ref[at] == ref[at + del])
        ref[at] = kConcreteBases[rng.below(4)];
    return ref;
}

TEST(TargetSweep, FirstChunkAtThePrefixBoundary)
{
    // Consensus 1 deletes ref[200, 205), so P = 200.  Reads of 64
    // and 68 bases matching consensus 1 at P - k = 31, 32 and 33:
    // the window's first 32-base chunk ends one byte past, exactly
    // at, and one byte before the end of the shared prefix.  Their
    // minimum on consensus 1 lies below consensus 0's, so its
    // shared suffix is swept again.
    for (uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(0xB0DA + seed);
        const BaseSeq ref = pinnedDeletion(rng, randomSeq(rng, 400), 200, 5);
        const BaseSeq alt = withIndel(ref, 200, 5, "");
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t gap : {31u, 32u, 33u}) {
            for (size_t n : {64u, 68u}) {
                reads.push_back(alt.substr(200 - gap, n));
                QualSeq q;
                for (size_t b = 0; b < n; ++b)
                    q.push_back(typicalQual(rng));
                quals.push_back(q);
            }
        }
        IrTargetInput input = makeInput({ref, alt}, reads, quals);
        expectTargetSweepExact(input, "seed " + std::to_string(seed));
    }
}

TEST(TargetSweep, SharedSuffixAgainstEveryStartingMinimum)
{
    // Consensus 1 deletes ref[150, 158).  At the start of its shared
    // suffix its minimum is below consensus 0's (read B spans the
    // deletion on consensus 1 only), equal to it (read A matches
    // both before the deletion), or above it (read C covers the
    // deleted bases, which only consensus 0 has): the suffix is
    // swept again against a lower or higher minimum, or takes
    // consensus 0's counters.
    for (uint64_t seed = 0; seed < 4; ++seed) {
        Rng rng(0x5EED + seed);
        const BaseSeq ref = pinnedDeletion(rng, randomSeq(rng, 420), 150, 8);
        const BaseSeq alt = withIndel(ref, 150, 8, "");
        for (size_t n : {64u, 100u, 127u}) {
            const BaseSeq a = ref.substr(20, n);
            const BaseSeq b = alt.substr(150 - n / 2, n);
            const BaseSeq c = ref.substr(154 - n / 2, n);
            std::vector<QualSeq> quals;
            for (int r = 0; r < 3; ++r) {
                QualSeq q;
                for (size_t p = 0; p < n; ++p)
                    q.push_back(typicalQual(rng));
                quals.push_back(q);
            }
            IrTargetInput input = makeInput({ref, alt}, {a, b, c}, quals);
            const std::string where =
                "seed " + std::to_string(seed) + " n " + std::to_string(n);
            expectTargetSweepExact(input, where);
            const MinWhdGrid grid = minWhd(input, true);
            EXPECT_EQ(grid.whd(0, 0), grid.whd(1, 0)) << where;
            EXPECT_LT(grid.whd(1, 1), grid.whd(0, 1)) << where;
            EXPECT_LT(grid.whd(0, 2), grid.whd(1, 2)) << where;
        }
    }
}

TEST(TargetSweep, ReadTailsOfEveryShape)
{
    // n % 32 in {0, 4, 31}, one to eight chunks, against indels at
    // the window's start, middle and end.
    for (uint64_t seed = 0; seed < 3; ++seed) {
        Rng rng(0x7A11 + seed);
        const BaseSeq ref = randomSeq(rng, 360);
        std::vector<BaseSeq> cons = {ref};
        for (size_t at : {0u, 40u, 180u, 300u, 359u}) {
            cons.push_back(withIndel(ref, at, 1 + rng.below(12), ""));
            cons.push_back(withIndel(ref, at, 0,
                                     randomSeq(rng, 1 + rng.below(12))));
        }
        IrTargetInput input = indelTarget(
            rng, cons, {32, 36, 63, 64, 100, 127, 228, 255, 256}, 3,
            typicalQual);
        expectTargetSweepExact(input, "seed " + std::to_string(seed));
    }
}

TEST(TargetSweep, ReadsLongerThanConsensusZero)
{
    // Reads longer than consensus 0 fit only the insertions and are
    // swept pair by pair; shorter reads of the same target share
    // consensus 0's sweep.
    Rng rng(0x10C0);
    const BaseSeq ref = randomSeq(rng, 200);
    std::vector<BaseSeq> cons = {ref};
    cons.push_back(withIndel(ref, 10, 0, randomSeq(rng, 30)));
    cons.push_back(withIndel(ref, 100, 0, randomSeq(rng, 24)));
    cons.push_back(withIndel(ref, 60, 6, ""));
    IrTargetInput longer =
        indelTarget(rng, cons, {201, 210, 224}, 3, typicalQual);
    expectTargetSweepExact(longer, "longer only");
    IrTargetInput mixed =
        indelTarget(rng, cons, {64, 150, 200, 201, 224}, 3, typicalQual);
    expectTargetSweepExact(mixed, "mixed");
}

TEST(TargetSweep, TandemRepeatOverlapWithChunkedReads)
{
    // Indels inside long repeats make the shared prefix and suffix
    // overlap; reads of several chunks sweep windows on both sides.
    Rng rng(0x7A7B);
    const BaseSeq left = randomSeq(rng, 150);
    const BaseSeq right = randomSeq(rng, 150);
    for (const BaseSeq &unit : {BaseSeq("A"), BaseSeq("AC"),
                                BaseSeq("ACG")}) {
        BaseSeq repeat;
        while (repeat.size() < 60)
            repeat += unit;
        const BaseSeq ref = left + repeat + right;
        std::vector<BaseSeq> cons = {ref};
        cons.push_back(withIndel(ref, 170, unit.size(), ""));
        cons.push_back(withIndel(ref, 180, 0, unit + unit));
        cons.push_back(withIndel(ref, 150, 3 * unit.size(), ""));
        IrTargetInput input =
            indelTarget(rng, cons, {33, 64, 96, 150}, 3, typicalQual);
        expectTargetSweepExact(input, "unit " + unit);
    }
}

/**
 * sweepTarget at width 32 under every kernel against the per-pair
 * scalar loop: grid, every counter but offsetsSwept, chunks and
 * pairs.  offsetsSwept must equal the width-1 scalar target
 * sweep's, which replays no chunk rows.
 */
void
expectWidth32Exact(const IrTargetInput &input, const std::string &where)
{
    const difftest::PairSweep want =
        difftest::sweepPairsScalar(input, true, 32);
    WhdTarget rows;
    rows.load(input);
    MinWhdGrid grid(0, 0);
    WhdStats width1;
    sweepTarget(rows, true, 1, SimdKernel::Scalar, grid, width1);
    for (SimdKernel kernel : supportedSimdKernels()) {
        const std::string ctx =
            where + " kernel " + simdKernelName(kernel);
        WhdStats st;
        const WhdTargetSweep work =
            sweepTarget(rows, true, 32, kernel, grid, st);
        for (size_t i = 0; i < grid.numConsensuses(); ++i) {
            for (size_t j = 0; j < grid.numReads(); ++j) {
                if (grid.whd(i, j) != want.grid.whd(i, j) ||
                    grid.idx(i, j) != want.grid.idx(i, j)) {
                    ADD_FAILURE()
                        << ctx << ": (cons " << i << ", read " << j
                        << ") min " << grid.whd(i, j) << " at "
                        << grid.idx(i, j) << ", per-pair "
                        << want.grid.whd(i, j) << " at "
                        << want.grid.idx(i, j);
                    return;
                }
            }
        }
        EXPECT_EQ(st.comparisons, want.stats.comparisons) << ctx;
        EXPECT_EQ(st.comparisonsUnpruned, want.stats.comparisonsUnpruned)
            << ctx;
        EXPECT_EQ(st.offsetsEvaluated, want.stats.offsetsEvaluated)
            << ctx;
        EXPECT_EQ(st.offsetsPruned, want.stats.offsetsPruned) << ctx;
        EXPECT_EQ(st.offsetsSwept, width1.offsetsSwept) << ctx;
        EXPECT_EQ(work.chunks, want.work.chunks) << ctx;
        EXPECT_EQ(work.pairs, want.work.pairs) << ctx;
        if (::testing::Test::HasFailure())
            return;
    }
}

/** Read lengths the width-32 rows treat differently. */
constexpr size_t kChunkEdgeLens[] = {0, 1, 31, 32, 33, 100, 255, 256};

/**
 * @p len bases from a random consensus of @p cons with up to four
 * point errors, or random bases when that consensus is shorter.
 */
BaseSeq
sampledRead(Rng &rng, const std::vector<BaseSeq> &cons, size_t len)
{
    const BaseSeq &src = cons[rng.below(cons.size())];
    if (len > src.size())
        return randomSeq(rng, len);
    BaseSeq read = src.substr(rng.below(src.size() - len + 1), len);
    for (uint64_t e = len == 0 ? 0 : rng.below(5); e > 0; --e)
        read[rng.below(len)] = kConcreteBases[rng.below(4)];
    return read;
}

/**
 * A random target: a reference of 20-420 bases, often with a tandem
 * repeat of a 1-4 base unit, and up to seven alternatives deleting
 * 1-40 bases or inserting 1-60 (random bases, or a copy of the
 * bases before the site, which lengthens a repeat).  Reads come
 * from kChunkEdgeLens or 1-256 bases; qualities are typical, all
 * 0, all 255, or either extreme at random.
 */
IrTargetInput
randomIndelTarget(Rng &rng)
{
    const size_t m0 = static_cast<size_t>(rng.range(20, 420));
    BaseSeq ref = randomSeq(rng, m0);
    if (rng.chance(0.5)) {
        const BaseSeq unit = randomSeq(rng, 1 + rng.below(4));
        const size_t at = rng.below(m0);
        const size_t len = std::min<size_t>(m0 - at, 8 + rng.below(80));
        for (size_t b = 0; b < len; ++b)
            ref[at + b] = unit[b % unit.size()];
    }
    std::vector<BaseSeq> cons = {ref};
    for (uint64_t a = rng.below(8); a > 0; --a) {
        const size_t at = rng.below(m0 + 1);
        if (at < m0 && rng.chance(0.5)) {
            const size_t del =
                1 + rng.below(std::min<size_t>(40, m0 - at));
            cons.push_back(withIndel(ref, at, del, ""));
        } else {
            const size_t len = 1 + rng.below(60);
            const BaseSeq ins = at >= len && rng.chance(0.5)
                                    ? ref.substr(at - len, len)
                                    : randomSeq(rng, len);
            cons.push_back(withIndel(ref, at, 0, ins));
        }
    }
    const int qualMode = static_cast<int>(rng.below(4));
    std::vector<BaseSeq> reads;
    std::vector<QualSeq> quals;
    for (uint64_t r = 2 + rng.below(8); r > 0; --r) {
        const size_t len =
            rng.chance(0.5) ? kChunkEdgeLens[rng.below(8)]
                            : static_cast<size_t>(rng.range(1, 256));
        reads.push_back(sampledRead(rng, cons, len));
        QualSeq q;
        for (size_t b = 0; b < len; ++b) {
            switch (qualMode) {
              case 0: q.push_back(typicalQual(rng)); break;
              case 1: q.push_back(0); break;
              case 2: q.push_back(255); break;
              default: q.push_back(rng.chance(0.5) ? 0 : 255); break;
            }
        }
        quals.push_back(q);
    }
    return makeInput(std::move(cons), std::move(reads),
                     std::move(quals));
}

TEST(TargetSweep, Width32RowsMatchPerPairOnRandomTargets)
{
    for (uint64_t seed = 0; seed < 1000; ++seed) {
        Rng rng(0x3232 + seed);
        expectWidth32Exact(randomIndelTarget(rng),
                           "seed " + std::to_string(seed));
        if (HasFailure())
            return;
    }
}

TEST(TargetSweep, Width32RowsOnNamedShapes)
{
    Rng rng(0x3233);
    const BaseSeq ref = randomSeq(rng, 300);
    auto readsOf = [&](const std::vector<BaseSeq> &cons, uint8_t lo,
                       uint8_t hi) {
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t len : kChunkEdgeLens) {
            for (int r = 0; r < 3; ++r) {
                reads.push_back(sampledRead(rng, cons, len));
                QualSeq q;
                for (size_t b = 0; b < len; ++b)
                    q.push_back(static_cast<uint8_t>(rng.range(lo, hi)));
                quals.push_back(q);
            }
        }
        return makeInput(cons, std::move(reads), std::move(quals));
    };

    // Insertions at and near consensus 0's end: the alternative is
    // longer, so offsets past consensus 0's last one have chunks in
    // the shared prefix with no row of consensus 0 to take them
    // from.  Their reads come from the alternative.
    for (size_t at : {300u, 299u, 280u}) {
        const BaseSeq alt = withIndel(ref, at, 0, randomSeq(rng, 40));
        IrTargetInput input = readsOf({ref, alt}, 2, 41);
        for (size_t j = 0; j < input.numReads(); ++j) {
            const size_t n = input.readBases[j].size();
            if (n > 0 && n <= alt.size() && rng.chance(0.5)) {
                const size_t slack = std::min<size_t>(8, alt.size() - n);
                input.readBases[j] =
                    alt.substr(alt.size() - n - rng.below(slack + 1), n);
            }
        }
        expectWidth32Exact(input, "insertion at " + std::to_string(at));
    }

    // Insertions longer than one chunk, random and repeating.
    for (size_t len : {33u, 48u, 60u}) {
        expectWidth32Exact(
            readsOf({ref, withIndel(ref, 150, 0, randomSeq(rng, len)),
                     withIndel(ref, 150, 0, ref.substr(150 - len, len))},
                    2, 41),
            "insertion of " + std::to_string(len));
    }

    // Prefix and suffix overlapping inside a tandem repeat.
    BaseSeq repeat = ref;
    for (size_t b = 100; b < 190; ++b)
        repeat[b] = "AC"[b % 2];
    expectWidth32Exact(readsOf({repeat, withIndel(repeat, 120, 2, ""),
                                withIndel(repeat, 130, 0, "ACAC"),
                                withIndel(repeat, 101, 40, "")},
                               2, 41),
                       "tandem repeat");

    // Qualities 0 and 255.
    const std::vector<BaseSeq> cons = {ref, withIndel(ref, 140, 5, ""),
                                       withIndel(ref, 60, 0, "GATTACA")};
    expectWidth32Exact(readsOf(cons, 0, 0), "phred 0");
    expectWidth32Exact(readsOf(cons, 255, 255), "phred 255");
}

/** The bytes of @p s as the sweep reads them. */
const uint8_t *
bytes(const BaseSeq &s)
{
    return reinterpret_cast<const uint8_t *>(s.data());
}

/** A sweep state with running minimum @p best and no counters. */
WhdSweepResult
minimumOf(uint32_t best)
{
    WhdSweepResult r;
    r.best = best;
    return r;
}

/**
 * Datapath widths of the lane-sweep tests: per comparison, the
 * smallest chunk, one that is not a power of two, the row-replay
 * width, and one wider than any lane read.
 */
const std::vector<uint32_t> kLaneWidths = {1, 2, 7, 32, 300};

/**
 * Pruned sweep from @p from at every width of @p widths, every
 * kernel vs scalar.
 */
void
expectLanesBitEqual(const BaseSeq &cons, const BaseSeq &read,
                    const QualSeq &qual, const std::string &where,
                    const WhdSweepResult &from = WhdSweepResult(),
                    size_t kBegin = 0, size_t kEnd = kWhdSweepEnd,
                    const std::vector<uint32_t> &widths = kLaneWidths)
{
    for (uint32_t w : widths)
        expectSweepBitEqual(bytes(cons), cons.size(), bytes(read),
                            qual.data(), read.size(), true, w, where,
                            kBegin, kEnd, from);
}

/** Scalar per-comparison pruned sweep of every offset from @p from. */
WhdSweepResult
scalarLanes(const BaseSeq &cons, const BaseSeq &read,
            const QualSeq &qual, const WhdSweepResult &from)
{
    return whdSweep(bytes(cons), cons.size(), bytes(read), qual.data(),
                    read.size(), true, 1, SimdKernel::Scalar, 0,
                    kWhdSweepEnd, from);
}

TEST(LaneSweep, EveryOffsetCount)
{
    // The per-comparison sweeps run sixteen offsets per block.
    // Offset counts 1-40 give a lone padded block, whole blocks,
    // and padded tails after one or two of them; from the empty
    // state the first offset runs alone, so each count also runs
    // from a carried minimum.  Half the reads are planted (one
    // deep minimum, most lanes abort early), half are random (the
    // minimum falls block after block).
    Rng rng(0x1A4E);
    for (size_t n : {1u, 7u, 8u, 9u, 100u, 256u}) {
        for (size_t offsets = 1; offsets <= 40; ++offsets) {
            const BaseSeq cons = randomSeq(rng, n + offsets - 1);
            const bool planted = rng.chance(0.5);
            BaseSeq read = planted ? cons.substr(rng.below(offsets), n)
                                   : randomSeq(rng, n);
            if (planted && rng.chance(0.5))
                read[rng.below(n)] = kConcreteBases[rng.below(4)];
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(
                    rng.chance(0.15) ? 0 : rng.range(0, 60)));
            const std::string where =
                "n=" + std::to_string(n) +
                " offsets=" + std::to_string(offsets) +
                (planted ? " planted" : " random");
            expectLanesBitEqual(cons, read, qual, where);
            expectLanesBitEqual(cons, read, qual, where + " from 90",
                                minimumOf(90));
        }
    }
}

TEST(LaneSweep, SurvivorAtEveryLane)
{
    // From a carried minimum of 40 the first block starts at
    // offset 0.  Qualities are 0 before comparison `abort` and 40
    // from it on.  Consensus bases are G/T and read bases A/C, and
    // the read's bases from comparison `abort` on are planted at
    // offset s: lane s survives with WHD 0, and every lane before
    // it mismatches on comparison `abort`, where its sum reaches
    // 40, and aborts there.  Against s's minimum of 0 every later
    // lane aborts on comparison 1.  The abort points put lanes on the
    // last comparison of a chunk (jW), on the first of the next
    // (jW + 1) and inside a last partial chunk, at every width of
    // kLaneWidths.  19 offsets put a padded block after the full
    // one.
    const size_t offsets = 19;
    for (size_t n : {2u, 8u, 33u, 100u, 256u}) {
        std::set<size_t> aborts = {1, n - 1, n};
        for (uint32_t w : kLaneWidths) {
            for (size_t j : {size_t{1}, size_t{2}, n / w}) {
                aborts.insert(j * w);
                aborts.insert(j * w + 1);
            }
        }
        for (size_t s = 0; s < kWhdLanes; ++s) {
            Rng rng(0x5A11 + 17 * n + s);
            BaseSeq read;
            for (size_t p = 0; p < n; ++p)
                read.push_back(rng.chance(0.5) ? 'A' : 'C');
            BaseSeq background;
            for (size_t b = 0; b < n + offsets - 1; ++b)
                background.push_back(rng.chance(0.5) ? 'G' : 'T');
            for (size_t abort : aborts) {
                if (abort < 1 || abort > n)
                    continue;
                BaseSeq cons = background;
                std::copy(read.begin() + (abort - 1), read.end(),
                          cons.begin() + (s + abort - 1));
                QualSeq qual(n, 40);
                std::fill_n(qual.begin(), abort - 1, 0);
                const std::string where =
                    "n=" + std::to_string(n) + " s=" +
                    std::to_string(s) + " abort=" + std::to_string(abort);
                const WhdSweepResult ref =
                    scalarLanes(cons, read, qual, minimumOf(40));
                ASSERT_EQ(ref.best, 0u) << where;
                ASSERT_EQ(ref.bestK, s) << where;
                ASSERT_EQ(ref.offsetsPruned, offsets - 1) << where;
                ASSERT_EQ(ref.comparisons,
                          s * abort + n + (offsets - 1 - s))
                    << where;
                expectLanesBitEqual(cons, read, qual, where,
                                    minimumOf(40));
            }
        }
    }
}

TEST(LaneSweep, TwoSurvivorsInOneBlock)
{
    // An all-A read over a run of A's in a G background, from a
    // carried minimum of 40.  Window k's WHD is the quality sum of
    // the read positions that fall outside the run.
    //   ascending: the run is [s, s + n) and the read's last
    //   quality is 1, so lane s has WHD 0 and lane s + 1 has WHD 1:
    //   both beat 40, but s + 1 must abort against s's 0.
    //   descending: the run is [s + 1, s + 1 + n) and the first
    //   quality is 1, so lane s (WHD 1) is a minimum that lane
    //   s + 1 (WHD 0) lowers again.
    //   ties: a run d - 1 bases longer gives d windows of WHD 0;
    //   only the first is a minimum, the rest tie and abort.
    // All other windows pay a quality-40 background base.
    const size_t offsets = 2 * kWhdLanes;
    for (size_t n : {2u, 9u, 64u, 256u}) {
        for (size_t s = 0; s + 1 < kWhdLanes; ++s) {
            for (int shape = 0; shape < 3; ++shape) {
                const size_t d = shape == 2 ? kWhdLanes - s : 1;
                const size_t runStart = shape == 1 ? s + 1 : s;
                BaseSeq cons(n + offsets - 1, 'G');
                std::fill_n(cons.begin() + runStart, n + d - 1, 'A');
                const BaseSeq read(n, 'A');
                QualSeq qual(n, 40);
                if (shape == 0)
                    qual[n - 1] = 1;
                if (shape == 1)
                    qual[0] = 1;
                const char *names[] = {" ascending", " descending",
                                       " ties"};
                const std::string where = "n=" + std::to_string(n) +
                                          " s=" + std::to_string(s) +
                                          names[shape];
                const WhdSweepResult ref =
                    scalarLanes(cons, read, qual, minimumOf(40));
                ASSERT_EQ(ref.best, 0u) << where;
                ASSERT_EQ(ref.bestK, shape == 1 ? s + 1 : s) << where;
                ASSERT_EQ(ref.offsetsPruned,
                          offsets - (shape == 1 ? 2 : 1))
                    << where;
                expectLanesBitEqual(cons, read, qual, where,
                                    minimumOf(40));
            }
        }
    }
}

TEST(LaneSweep, MinimaAtTheLaneLimits)
{
    // Lanes hold sums in u16 biased by 0x8000.  n = 256 at quality
    // 255 reaches the 65,280 ceiling: with every base mismatching,
    // each offset's sum meets a minimum of 65,280 on its last
    // comparison and stays under 65,281 and anything above 0xFFFF.
    // Random windows put the sums above 2^15, where an unbiased
    // signed compare would flip.  A minimum of 0 aborts every
    // offset on its first comparison, zero qualities included.
    const size_t offsets = 21;
    Rng rng(0xB1A5);
    const uint32_t minima[] = {0,     1,     32767, 32768, 40000,
                               65279, 65280, 65281, 65535, 65536,
                               kWhdMax};
    for (int shape = 0; shape < 3; ++shape) {
        const size_t n = 256;
        BaseSeq cons(n + offsets - 1, 'C');
        BaseSeq read(n, 'A');
        QualSeq qual(n, 255);
        if (shape == 1) {
            cons = randomSeq(rng, n + offsets - 1);
            read = randomSeq(rng, n);
        }
        if (shape == 2)
            qual.assign(n, 0);
        const std::string where = "shape=" + std::to_string(shape);
        if (shape == 0) {
            const WhdSweepResult ref =
                scalarLanes(cons, read, qual, WhdSweepResult());
            ASSERT_EQ(ref.best, 65280u);
            ASSERT_EQ(ref.comparisons, offsets * n);
            ASSERT_EQ(ref.offsetsPruned, offsets - 1);
        }
        expectLanesBitEqual(cons, read, qual, where);
        for (uint32_t best : minima)
            expectLanesBitEqual(cons, read, qual,
                                where + " from " + std::to_string(best),
                                minimumOf(best));
    }
}

TEST(LaneSweep, ReadLengthFallbacks)
{
    // n = 0 has no comparison to abort on and n > kMaxReadLen
    // overflows a u16 lane: both run the scalar reference at every
    // width, which every kernel must still equal.  n = 256 is the
    // longest lane read.  Width 8 joins the lane widths, so the
    // fallback also runs at a power of two between 2 and 32.
    std::vector<uint32_t> widths = kLaneWidths;
    widths.push_back(8);
    Rng rng(0xFA11);
    for (size_t n : {0u, 255u, 256u, 257u, 300u}) {
        for (size_t offsets : {1u, 17u, 40u}) {
            const BaseSeq cons = randomSeq(rng, n + offsets - 1);
            BaseSeq read = cons.substr(rng.below(offsets), n);
            if (n > 0)
                read[rng.below(n)] = kConcreteBases[rng.below(4)];
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(rng.range(0, 255)));
            const std::string where = "n=" + std::to_string(n) +
                                      " offsets=" +
                                      std::to_string(offsets);
            expectLanesBitEqual(cons, read, qual, where, {}, 0,
                                kWhdSweepEnd, widths);
            expectLanesBitEqual(cons, read, qual, where + " from 500",
                                minimumOf(500), 0, kWhdSweepEnd,
                                widths);
            expectLanesBitEqual(cons, read, qual, where + " from 0",
                                minimumOf(0), 0, kWhdSweepEnd, widths);
        }
    }
}

TEST(LaneSweep, RangesFromCarriedStateAtEveryPhase)
{
    // A range that resumes from a carried state starts its first
    // block at kBegin, so kBegin 0-47 puts the block grid at every
    // phase relative to the offsets; the ranges end after one
    // offset, one block, one block and one, and at the end.
    const size_t offsets = 64;
    Rng rng(0x9A5E);
    for (size_t n : {9u, 64u, 150u}) {
        for (bool planted : {false, true}) {
            const BaseSeq cons = randomSeq(rng, n + offsets - 1);
            BaseSeq read = planted ? cons.substr(rng.below(offsets), n)
                                   : randomSeq(rng, n);
            if (planted)
                read[rng.below(n)] = kConcreteBases[rng.below(4)];
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(rng.range(0, 60)));
            for (size_t kBegin = 0; kBegin < 48; ++kBegin) {
                const WhdSweepResult head = whdSweep(
                    bytes(cons), cons.size(), bytes(read), qual.data(),
                    n, true, 1, SimdKernel::Scalar, 0, kBegin);
                for (size_t len : {size_t{1}, size_t{16}, size_t{17}, offsets}) {
                    const size_t kEnd = std::min(offsets, kBegin + len);
                    expectLanesBitEqual(
                        cons, read, qual,
                        "n=" + std::to_string(n) +
                            (planted ? " planted" : " random") +
                            " range=[" + std::to_string(kBegin) + "," +
                            std::to_string(kEnd) + ")",
                        head, kBegin, kEnd);
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
