/**
 * @file
 * Tests for the IR unit datapath model: functional equivalence with
 * the software kernel across data-parallel widths and pruning
 * settings, and sanity of the cycle model.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "accel/ir_compute.hh"
#include "realign/score.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** Random but realistic target input. */
IrTargetInput
randomInput(Rng &rng, size_t num_cons, size_t num_reads,
            size_t cons_len, size_t read_len)
{
    IrTargetInput input;
    input.windowStart = static_cast<int64_t>(rng.below(100000));
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(cons_len);
    BaseSeq ref;
    for (size_t b = 0; b < cons_len; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    for (size_t i = 1; i < num_cons; ++i) {
        BaseSeq alt = ref;
        // Perturb a few bases so consensuses differ but correlate.
        for (int e = 0; e < 5; ++e)
            alt[rng.below(alt.size())] = kConcreteBases[rng.below(4)];
        input.consensuses.push_back(alt);
    }
    input.events.resize(input.consensuses.size());
    for (size_t j = 0; j < num_reads; ++j) {
        size_t off = rng.below(cons_len - read_len + 1);
        size_t src = rng.below(input.consensuses.size());
        BaseSeq r = input.consensuses[src].substr(off, read_len);
        QualSeq q;
        for (size_t b = 0; b < read_len; ++b)
            q.push_back(static_cast<uint8_t>(rng.range(2, 60)));
        for (int e = 0; e < 2; ++e)
            r[rng.below(r.size())] = kConcreteBases[rng.below(4)];
        input.addRead(r, q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return input;
}

using WidthPrune = std::tuple<uint32_t, bool>;

class IrComputeEquivalence
    : public ::testing::TestWithParam<WidthPrune>
{
};

TEST_P(IrComputeEquivalence, MatchesSoftwareKernel)
{
    auto [width, prune] = GetParam();
    Rng rng(1234 + width + (prune ? 1 : 0));

    for (int trial = 0; trial < 20; ++trial) {
        IrTargetInput input = randomInput(
            rng, 1 + rng.below(6), 1 + rng.below(10),
            60 + rng.below(200), 10 + rng.below(40));
        MarshalledTarget m = marshalTarget(input);

        IrComputeResult hw = irCompute(m, width, prune);
        MinWhdGrid sw_grid = minWhd(input, false);
        ConsensusDecision sw = scoreAndSelect(sw_grid);

        ASSERT_EQ(hw.bestConsensus, sw.bestConsensus)
            << "trial " << trial;
        ASSERT_EQ(hw.output.realignFlags, sw.realign);
        for (size_t j = 0; j < input.numReads(); ++j) {
            if (sw.realign[j]) {
                EXPECT_EQ(hw.output.newPositions[j],
                          sw.newOffset[j] + m.targetStart);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndPruning, IrComputeEquivalence,
    ::testing::Values(WidthPrune{1, false}, WidthPrune{1, true},
                      WidthPrune{8, true}, WidthPrune{32, false},
                      WidthPrune{32, true}),
    [](const ::testing::TestParamInfo<WidthPrune> &info) {
        return "w" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_prune" : "_noprune");
    });

TEST(IrComputeCycles, DataParallelIsFaster)
{
    Rng rng(99);
    IrTargetInput input = randomInput(rng, 4, 8, 300, 80);
    MarshalledTarget m = marshalTarget(input);

    IrComputeResult scalar = irCompute(m, 1, true);
    IrComputeResult parallel = irCompute(m, 32, true);
    EXPECT_LT(parallel.hdcCycles, scalar.hdcCycles);
    // Without pruning the speedup approaches the 32x width on long
    // reads; with pruning it is still large.
    EXPECT_GT(static_cast<double>(scalar.hdcCycles) /
                  static_cast<double>(parallel.hdcCycles),
              4.0);
}

TEST(IrComputeCycles, PruningSavesCycles)
{
    Rng rng(7);
    IrTargetInput input = randomInput(rng, 4, 16, 400, 100);
    MarshalledTarget m = marshalTarget(input);

    IrComputeResult pruned = irCompute(m, 1, true);
    IrComputeResult full = irCompute(m, 1, false);
    EXPECT_LT(pruned.hdcCycles, full.hdcCycles);
    EXPECT_EQ(pruned.bestConsensus, full.bestConsensus);
    EXPECT_EQ(pruned.output.realignFlags, full.output.realignFlags);
    EXPECT_EQ(pruned.output.newPositions, full.output.newPositions);
}

TEST(IrComputeCycles, SelectorScalesWithConsensuses)
{
    Rng rng(11);
    IrTargetInput one = randomInput(rng, 2, 10, 200, 50);
    IrTargetInput many = randomInput(rng, 8, 10, 200, 50);
    IrComputeResult a = irCompute(marshalTarget(one), 32, true);
    IrComputeResult b = irCompute(marshalTarget(many), 32, true);
    EXPECT_GT(b.selectorCycles, a.selectorCycles);
}

TEST(IrCompute, ScalarThroughputMatchesAbstractClaim)
{
    // Paper abstract: a sea of 32 IR units processes "up to 4
    // billion base pair comparisons per second": 32 units x one
    // comparison per cycle x 125 MHz = 4e9.
    double peak = 32.0 * 125e6;
    EXPECT_DOUBLE_EQ(peak, 4e9);
}

} // namespace
} // namespace iracc
