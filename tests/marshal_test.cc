/**
 * @file
 * Tests for target marshalling into the accelerator's byte layout
 * (Figure 6 structure sizes) and output translation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "realign/limits.hh"
#include "realign/marshal.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

IrTargetInput
sampleInput(Rng &rng, size_t num_cons = 3, size_t num_reads = 5)
{
    IrTargetInput input;
    input.windowStart = 12345;
    size_t cons_len = 120;
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(cons_len);
    for (size_t i = 0; i < num_cons; ++i) {
        BaseSeq s;
        size_t len = cons_len + i; // distinct lengths
        for (size_t b = 0; b < len; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(num_cons);
    for (size_t j = 0; j < num_reads; ++j) {
        size_t len = 20 + j * 7;
        BaseSeq s;
        QualSeq q;
        for (size_t b = 0; b < len; ++b) {
            s.push_back(kConcreteBases[rng.below(4)]);
            q.push_back(static_cast<uint8_t>(rng.range(0, 60)));
        }
        input.addRead(s, q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return input;
}

TEST(Marshal, RoundTripConsensuses)
{
    Rng rng(4);
    IrTargetInput input = sampleInput(rng);
    MarshalledTarget m = marshalTarget(input);

    ASSERT_EQ(m.numConsensuses, input.numConsensuses());
    for (uint32_t i = 0; i < m.numConsensuses; ++i) {
        EXPECT_EQ(m.consensusAt(i), input.consensuses[i]);
        EXPECT_EQ(m.consensusLengths[i],
                  input.consensuses[i].size());
    }
}

TEST(Marshal, RoundTripReadsAndQuals)
{
    Rng rng(5);
    IrTargetInput input = sampleInput(rng, 2, 8);
    MarshalledTarget m = marshalTarget(input);

    ASSERT_EQ(m.numReads, input.numReads());
    for (uint32_t j = 0; j < m.numReads; ++j) {
        EXPECT_EQ(m.readAt(j), input.readSeqs[j].bases());
        EXPECT_TRUE(
            std::ranges::equal(m.qualsAt(j), input.readSeqs[j].quals()));
    }
}

TEST(Marshal, FixedStrideSlots)
{
    Rng rng(6);
    IrTargetInput input = sampleInput(rng, 2, 3);
    MarshalledTarget m = marshalTarget(input);

    // Read/quality buffers are at kMaxReadLen stride (paper input
    // buffers #2/#3 rows).
    EXPECT_EQ(m.readData.size(),
              static_cast<size_t>(m.numReads) * kMaxReadLen);
    EXPECT_EQ(m.qualData.size(), m.readData.size());
    // First byte after a read is the 0x00 end-of-read sentinel.
    size_t len0 = input.readSeqs[0].size();
    EXPECT_EQ(m.readData[len0], 0u);
}

TEST(Marshal, ByteCounts)
{
    Rng rng(7);
    IrTargetInput input = sampleInput(rng, 3, 4);
    MarshalledTarget m = marshalTarget(input);

    uint64_t cons_bytes = 0;
    for (const auto &c : input.consensuses)
        cons_bytes += c.size();
    EXPECT_EQ(m.totalInputBytes(),
              cons_bytes + 2ull * 4 * kMaxReadLen);
    // Output buffers: 1 B flag + 4 B position per read.
    EXPECT_EQ(m.totalOutputBytes(), 4ull * 5);
    EXPECT_EQ(m.targetStart, 12345u);
}

TEST(Marshal, FullSizeTargetWithinLimits)
{
    Rng rng(8);
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = kMaxConsensusLen;
    for (uint32_t i = 0; i < kMaxConsensuses; ++i) {
        BaseSeq s;
        for (uint32_t b = 0; b < kMaxConsensusLen; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(kMaxConsensuses);
    for (uint32_t j = 0; j < kMaxReads; ++j) {
        BaseSeq s;
        QualSeq q;
        for (uint32_t b = 0; b < kMaxReadLen; ++b) {
            s.push_back(kConcreteBases[rng.below(4)]);
            q.push_back(30);
        }
        input.addRead(s, q);
        input.readIndices.push_back(j);
    }
    MarshalledTarget m = marshalTarget(input);
    // 32 x 2048 consensus bytes + 2 x 256 x 256 read/qual bytes:
    // the paper's full input-buffer footprint.
    EXPECT_EQ(m.totalInputBytes(),
              32ull * 2048 + 2ull * 256 * 256);
    // Full-length reads have no sentinel; slot end delimits.
    EXPECT_EQ(m.readAt(0).size(), kMaxReadLen);
}

TEST(Marshal, SlotImagesEqualThePerByteFill)
{
    // The image of reads of every boundary length, marshalled into
    // a target that last held longer reads of other bytes, equals a
    // per-byte fill of zeroed slots: zero tails included.
    Rng rng(10);
    IrTargetInput input = sampleInput(rng, 2, 0);
    for (size_t len : {1u, 31u, 32u, 100u, 256u}) {
        BaseSeq s;
        QualSeq q;
        for (size_t b = 0; b < len; ++b) {
            s.push_back(kConcreteBases[rng.below(4)]);
            q.push_back(static_cast<uint8_t>(rng.range(1, 60)));
        }
        input.addRead(s, q);
        input.readIndices.push_back(
            static_cast<uint32_t>(input.readIndices.size()));
    }
    std::vector<uint8_t> reads(input.numReads() * kMaxReadLen, 0);
    std::vector<uint8_t> quals(reads.size(), 0);
    for (size_t j = 0; j < input.numReads(); ++j) {
        for (size_t n = 0; n < input.readSeqs[j].size(); ++n) {
            reads[j * kMaxReadLen + n] =
                static_cast<uint8_t>(input.readSeqs[j].bases()[n]);
            quals[j * kMaxReadLen + n] = input.readSeqs[j].quals()[n];
        }
    }

    IrTargetInput stale = sampleInput(rng, 1, 0);
    for (uint32_t j = 0; j < 8; ++j) {
        stale.addRead(BaseSeq(kMaxReadLen, 'G'),
                      QualSeq(kMaxReadLen, 77));
        stale.readIndices.push_back(j);
    }
    MarshalledTarget m;
    marshalTargetInto(stale, m);
    marshalTargetInto(input, m);
    EXPECT_EQ(m.readData, reads);
    EXPECT_EQ(m.qualData, quals);
}

/** A minimal valid input to mutate one dimension past its limit. */
IrTargetInput
limitProbe()
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 64;
    input.consensuses = {BaseSeq(64, 'A')};
    input.events.resize(1);
    input.addRead(BaseSeq(16, 'C'), QualSeq(16, 30));
    input.readIndices = {0};
    return input;
}

TEST(Marshal, GoldenVectorsAtExactLimits)
{
    // Every dimension simultaneously at its architectural maximum
    // must marshal and round-trip bit-exactly through the byte
    // images the accelerator reads.
    Rng rng(11);
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = kMaxConsensusLen;
    for (uint32_t i = 0; i < kMaxConsensuses; ++i) {
        BaseSeq s;
        for (uint32_t b = 0; b < kMaxConsensusLen; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(kMaxConsensuses);
    for (uint32_t j = 0; j < kMaxReads; ++j) {
        BaseSeq s;
        QualSeq q;
        for (uint32_t b = 0; b < kMaxReadLen; ++b) {
            s.push_back(kConcreteBases[rng.below(4)]);
            q.push_back(static_cast<uint8_t>(rng.range(0, 255)));
        }
        input.addRead(s, q);
        input.readIndices.push_back(j);
    }
    EXPECT_TRUE(input.limitViolation().empty());
    MarshalledTarget m = marshalTarget(input);
    ASSERT_EQ(m.numConsensuses, kMaxConsensuses);
    ASSERT_EQ(m.numReads, kMaxReads);
    for (uint32_t i = 0; i < kMaxConsensuses; ++i)
        ASSERT_EQ(m.consensusAt(i), input.consensuses[i]) << i;
    for (uint32_t j = 0; j < kMaxReads; ++j) {
        ASSERT_EQ(m.readAt(j), input.readSeqs[j].bases()) << j;
        ASSERT_TRUE(
            std::ranges::equal(m.qualsAt(j), input.readSeqs[j].quals()))
            << j;
    }
}

TEST(MarshalLimits, TooManyConsensusesRejectedCleanly)
{
    IrTargetInput input = limitProbe();
    while (input.consensuses.size() <= kMaxConsensuses) {
        input.consensuses.push_back(BaseSeq(64, 'G'));
        input.events.emplace_back();
    }
    EXPECT_NE(input.limitViolation().find("consensuses exceeds"),
              std::string::npos);
    EXPECT_DEATH(marshalTarget(input), "consensuses exceeds");
}

TEST(MarshalLimits, TooManyReadsRejectedCleanly)
{
    IrTargetInput input = limitProbe();
    while (input.numReads() <= kMaxReads) {
        input.addRead(BaseSeq(16, 'C'), QualSeq(16, 30));
        input.readIndices.push_back(
            static_cast<uint32_t>(input.readIndices.size()));
    }
    EXPECT_NE(input.limitViolation().find("reads exceeds"),
              std::string::npos);
    EXPECT_DEATH(marshalTarget(input), "reads exceeds");
}

TEST(MarshalLimits, OverlongConsensusRejectedCleanly)
{
    IrTargetInput input = limitProbe();
    input.consensuses[0] = BaseSeq(kMaxConsensusLen + 1, 'A');
    EXPECT_NE(input.limitViolation().find("consensus length"),
              std::string::npos);
    EXPECT_DEATH(marshalTarget(input), "consensus length");
}

TEST(MarshalLimits, OverlongReadRejectedCleanly)
{
    IrTargetInput input = limitProbe();
    input.readSeqs[0] = SeqSlice::copyOf(BaseSeq(kMaxReadLen + 1, 'C'),
                                         QualSeq(kMaxReadLen + 1, 30));
    EXPECT_NE(input.limitViolation().find("read length"),
              std::string::npos);
    EXPECT_DEATH(marshalTarget(input), "read length");
}

TEST(MarshalLimits, MalformedReadsRejectedCleanly)
{
    // A read's slice holds as many qualities as bases: a mismatch
    // cannot reach a target input.
    EXPECT_DEATH(SeqSlice::copyOf(BaseSeq(16, 'C'), QualSeq(15, 30)),
                 "16 bases but 15 qualities");

    IrTargetInput empty = limitProbe();
    empty.readSeqs[0] = SeqSlice();
    EXPECT_NE(empty.limitViolation().find("empty read"),
              std::string::npos);

    IrTargetInput skew = limitProbe();
    skew.readIndices.push_back(1);
    EXPECT_NE(skew.limitViolation().find("size mismatch"),
              std::string::npos);
}

TEST(OutputToDecision, UnbiasesPositions)
{
    Rng rng(9);
    IrTargetInput input = sampleInput(rng, 2, 3);
    AccelTargetOutput out;
    out.realignFlags = {1, 0, 1};
    out.newPositions = {
        static_cast<uint32_t>(input.windowStart + 17), 0,
        static_cast<uint32_t>(input.windowStart + 3)};
    ConsensusDecision d = outputToDecision(input, 1, out);
    EXPECT_EQ(d.bestConsensus, 1u);
    EXPECT_TRUE(d.realign[0]);
    EXPECT_EQ(d.newOffset[0], 17u);
    EXPECT_FALSE(d.realign[1]);
    EXPECT_EQ(d.newOffset[2], 3u);
}

TEST(OutputToDecision, RejectsSizeMismatch)
{
    Rng rng(10);
    IrTargetInput input = sampleInput(rng, 2, 3);
    AccelTargetOutput out;
    out.realignFlags = {1};
    out.newPositions = {0};
    EXPECT_DEATH(outputToDecision(input, 1, out), "size mismatch");
}

} // namespace
} // namespace iracc
