/**
 * @file
 * Cross-module property tests: parameterized sweeps over the
 * algorithm's operand space checking the invariants the system's
 * correctness rests on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "accel/ir_compute.hh"
#include "accel/resource_model.hh"
#include "core/workload.hh"
#include "core/realign_job.hh"
#include "realign/score.hh"
#include "refine/bqsr.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

// ====================================================================
// WHD kernel: brute-force equivalence over an operand-size grid.
// ====================================================================

using SizePair = std::tuple<size_t, size_t>; // (cons_len, read_len)

class WhdSizeSweep : public ::testing::TestWithParam<SizePair>
{
};

TEST_P(WhdSizeSweep, KernelMatchesBruteForceAndPruneAgrees)
{
    auto [cons_len, read_len] = GetParam();
    Rng rng(cons_len * 131 + read_len);

    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = static_cast<int64_t>(cons_len);
    for (int i = 0; i < 3; ++i) {
        BaseSeq s;
        for (size_t b = 0; b < cons_len; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(3);
    for (int j = 0; j < 6; ++j) {
        BaseSeq s;
        QualSeq q;
        for (size_t b = 0; b < read_len; ++b) {
            s.push_back(kConcreteBases[rng.below(4)]);
            q.push_back(static_cast<uint8_t>(rng.range(1, 60)));
        }
        input.addRead(s, q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }

    MinWhdGrid fast = minWhd(input, true);
    MinWhdGrid slow = minWhd(input, false);
    ASSERT_TRUE(fast == slow);

    // Brute-force re-derivation of a few grid entries.
    for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 2; ++j) {
            if (read_len > cons_len) {
                EXPECT_EQ(slow.whd(i, j), kWhdInfinity);
                continue;
            }
            uint32_t best = kWhdInfinity;
            uint32_t best_k = 0;
            for (size_t k = 0; k + read_len <= cons_len; ++k) {
                uint32_t whd = calcWhd(input.consensuses[i],
                                       input.readSeqs[j].bases(),
                                       input.readSeqs[j].quals(), k);
                if (whd < best) {
                    best = whd;
                    best_k = static_cast<uint32_t>(k);
                }
            }
            EXPECT_EQ(slow.whd(i, j), best);
            EXPECT_EQ(slow.idx(i, j), best_k);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OperandGrid, WhdSizeSweep,
    ::testing::Combine(::testing::Values(8, 31, 32, 33, 64, 200,
                                         2048),
                       ::testing::Values(1, 7, 32, 33, 100, 256)));

// ====================================================================
// Accelerator datapath: width sweep equivalence.
// ====================================================================

class WidthSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WidthSweep, EveryWidthIsFunctionallyIdentical)
{
    uint32_t width = GetParam();
    Rng rng(width * 7919);

    IrTargetInput input;
    input.windowStart = 5000;
    size_t cons_len = 97 + width; // deliberately not width-aligned
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(cons_len);
    BaseSeq ref;
    for (size_t b = 0; b < cons_len; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    BaseSeq alt = ref;
    alt.erase(cons_len / 3, 2);
    input.consensuses.push_back(alt);
    input.events.resize(2);
    for (int j = 0; j < 8; ++j) {
        size_t n = 5 + rng.below(60);
        size_t off = rng.below(cons_len - n);
        BaseSeq r = (j % 2 ? alt : ref).substr(
            off, std::min(n, alt.size() - off));
        QualSeq q(r.size(), 20);
        input.addRead(r, q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    MarshalledTarget m = marshalTarget(input);

    IrComputeResult reference = irCompute(m, 1, false);
    IrComputeResult wide = irCompute(m, width, true);
    EXPECT_EQ(wide.bestConsensus, reference.bestConsensus);
    EXPECT_EQ(wide.output.realignFlags,
              reference.output.realignFlags);
    EXPECT_EQ(wide.output.newPositions,
              reference.output.newPositions);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 31,
                                           32, 33, 64));

// ====================================================================
// Offset-to-alignment mapping: exhaustive placement sweep.
// ====================================================================

using IndelCase = std::tuple<bool, int>; // (is_insertion, length)

class MapOffsetSweep : public ::testing::TestWithParam<IndelCase>
{
};

TEST_P(MapOffsetSweep, EveryOffsetMapsToAConsistentAlignment)
{
    auto [is_ins, len] = GetParam();
    Rng rng(static_cast<uint64_t>(len) * 31 + (is_ins ? 1 : 0));

    const int64_t w = 2000;
    const size_t window_len = 80;
    BaseSeq window;
    for (size_t b = 0; b < window_len; ++b)
        window.push_back(kConcreteBases[rng.below(4)]);

    IrTargetInput input;
    input.windowStart = w;
    input.windowEnd = w + static_cast<int64_t>(window_len);
    input.consensuses.push_back(window);
    IndelEvent ev;
    ev.anchor = w + 40;
    ev.isInsertion = is_ins;
    BaseSeq cons;
    if (is_ins) {
        for (int i = 0; i < len; ++i)
            ev.insertedBases.push_back(kConcreteBases[rng.below(4)]);
        cons = window.substr(0, 41) + ev.insertedBases +
               window.substr(41);
    } else {
        ev.delLength = len;
        cons = window.substr(0, 41) +
               window.substr(41 + static_cast<size_t>(len));
    }
    input.events.push_back(IndelEvent{});
    input.consensuses.push_back(cons);
    input.events.push_back(ev);

    const uint32_t n = 12; // read length
    for (uint32_t k = 0; k + n <= cons.size(); ++k) {
        int64_t pos = 0;
        Cigar cigar;
        mapOffsetToAlignment(input, 1, k, n, pos, cigar);

        // Invariants: the CIGAR consumes exactly the read, the
        // alignment stays inside the window (deletions may touch
        // its end), and the reference projection of the read
        // re-derives the consensus placement.
        ASSERT_EQ(cigar.readLength(), n) << "k=" << k;
        ASSERT_GE(pos, w) << "k=" << k;
        ASSERT_LE(pos + cigar.referenceLength(),
                  w + static_cast<int64_t>(window_len)) << "k=" << k;

        // Walk the CIGAR: aligned (M) read bases must equal the
        // consensus bases at [k, k+n) in consensus space wherever
        // the window agrees (they do by construction).
        BaseSeq read = cons.substr(k, n);
        size_t read_off = 0;
        int64_t ref_pos = pos;
        for (const auto &e : cigar.elements()) {
            switch (e.op) {
              case CigarOp::Match:
                for (uint32_t x = 0; x < e.length; ++x) {
                    char want = window[static_cast<size_t>(
                        ref_pos - w + x)];
                    ASSERT_EQ(read[read_off + x], want)
                        << "k=" << k << " cigar="
                        << cigar.toString();
                }
                ref_pos += e.length;
                read_off += e.length;
                break;
              case CigarOp::Insert:
              case CigarOp::SoftClip:
                read_off += e.length;
                break;
              case CigarOp::Delete:
                ref_pos += e.length;
                break;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    IndelShapes, MapOffsetSweep,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 3, 5, 8, 12)));

// ====================================================================
// BQSR: recalibration converges to the true error rate.
// ====================================================================

class BqsrErrorSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BqsrErrorSweep, RecalibratedQualityTracksTrueErrorRate)
{
    const double true_error = GetParam() / 1000.0;
    Rng rng(static_cast<uint64_t>(GetParam()));

    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(30000, rng));

    std::vector<Read> reads;
    for (int i = 0; i < 600; ++i) {
        int64_t pos = static_cast<int64_t>(rng.below(30000 - 100));
        Read r;
        r.name = "r" + std::to_string(i);
        BaseSeq bases = ref.slice(0, pos, pos + 100);
        r.pos = pos;
        r.cigar = Cigar::simpleMatch(100);
        for (auto &b : bases) {
            if (rng.chance(true_error)) {
                char wrong;
                do {
                    wrong = kConcreteBases[rng.below(4)];
                } while (wrong == b);
                b = wrong;
            }
        }
        r.setSequence(bases, QualSeq(100, 30)); // mis-reported
        reads.push_back(r);
    }

    BqsrTable table;
    table.observe(ref, reads, {});
    table.recalibrate(reads);

    double sum = 0;
    uint64_t count = 0;
    for (const Read &r : reads)
        for (uint8_t q : r.quals()) {
            sum += q;
            ++count;
        }
    double got = sum / static_cast<double>(count);
    double want = -10.0 * std::log10(true_error);
    EXPECT_NEAR(got, want, 2.5) << "true error " << true_error;
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, BqsrErrorSweep,
                         ::testing::Values(5, 10, 20, 50, 100));

// ====================================================================
// End-to-end: FPGA == software across random workload seeds.
// ====================================================================

class SeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, FpgaMatchesSoftwareForAnyWorkload)
{
    setQuiet(true);
    WorkloadParams params;
    params.seed = GetParam();
    params.chromosomes = {22};
    params.scaleDivisor = 20000;
    params.minContigLength = 25000;
    params.coverage = 20.0;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(22);

    std::vector<Read> sw_reads = chr.reads;
    SoftwareRealignerConfig cfg;
    cfg.prune = true;
    RealignStats sw =
        RealignSession(makeSoftwareBackend("software", "pruned", cfg))
            .runContig(wl.reference, chr.contig, sw_reads)
            .stats;

    // The accelerated path must agree bit-for-bit.
    std::vector<Read> hw_reads = chr.reads;
    ContigPlan plan = planStage(wl.reference, chr.contig, hw_reads);
    uint64_t hw_realigned = 0;
    for (size_t t = 0; t < plan.targets.size(); ++t) {
        if (plan.readsPerTarget[t].empty())
            continue;
        IrTargetInput input = buildTargetInput(
            wl.reference, hw_reads, plan.targets[t],
            plan.readsPerTarget[t]);
        IrComputeResult res = irCompute(marshalTarget(input), 32,
                                        true);
        ConsensusDecision d = outputToDecision(
            input, res.bestConsensus, res.output);
        hw_realigned += applyDecision(input, d, hw_reads);
    }
    EXPECT_EQ(hw_realigned, sw.readsRealigned);
    for (size_t i = 0; i < sw_reads.size(); ++i) {
        ASSERT_EQ(sw_reads[i].pos, hw_reads[i].pos) << "read " << i;
        ASSERT_EQ(sw_reads[i].cigar.toString(),
                  hw_reads[i].cigar.toString()) << "read " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21,
                                           34));

// ====================================================================
// Resource model: monotonicity over the configuration space.
// ====================================================================

class UnitSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(UnitSweep, ResourceEstimateIsMonotonicAndConsistent)
{
    uint32_t units = GetParam();
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = units;
    ResourceEstimate est = estimateResources(cfg);
    EXPECT_GT(est.bramBlocksPerUnit, 0u);
    EXPECT_EQ(est.bramBlocksTotal,
              est.bramBlocksPerUnit * units + (est.bramBlocksTotal -
              est.bramBlocksPerUnit * units));
    if (units > 1) {
        cfg.numUnits = units - 1;
        ResourceEstimate smaller = estimateResources(cfg);
        EXPECT_LT(smaller.bramUtilization, est.bramUtilization);
        EXPECT_LT(smaller.clbUtilization, est.clbUtilization);
    }
}

INSTANTIATE_TEST_SUITE_P(Units, UnitSweep,
                         ::testing::Range(1u, 33u, 4u));

} // namespace
} // namespace iracc
