/**
 * @file
 * Tests for the assembled FPGA system model and the VU9P resource
 * model (paper Section III-A sizing claims).
 */

#include <gtest/gtest.h>

#include "accel/fpga_system.hh"
#include "accel/resource_model.hh"
#include "realign/marshal.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

MarshalledTarget
tinyTarget(Rng &rng)
{
    IrTargetInput input;
    input.windowStart = 500;
    input.windowEnd = 600;
    BaseSeq ref;
    for (int b = 0; b < 100; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    BaseSeq alt = ref;
    alt.erase(40, 2); // a 2 bp deletion consensus
    input.consensuses.push_back(alt);
    input.events.resize(2);
    for (int j = 0; j < 4; ++j) {
        size_t off = rng.below(60);
        input.addRead(ref.substr(off, 30), QualSeq(30, 25));
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return marshalTarget(input);
}

TEST(FpgaSystem, SingleTargetLifecycle)
{
    Rng rng(1);
    MarshalledTarget target = tinyTarget(rng);
    FpgaSystem sys(AccelConfig::paperOptimized());

    bool done = false;
    IrComputeResult result;
    EXPECT_TRUE(sys.unitIdle(0));
    // No precomputed result: the unit must compute from the bytes
    // it reads out of device memory.
    TargetDescriptor desc = sys.runMarshalledTarget(
        0, target, 0, [&](IrComputeResult &&res) {
            done = true;
            result = std::move(res);
        });
    sys.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(sys.unitIdle(0));
    EXPECT_EQ(result.output.realignFlags.size(), 4u);

    // The architectural outputs must be in device memory and agree
    // with the response.
    AccelTargetOutput mem_out = sys.readOutputs(desc);
    EXPECT_EQ(mem_out.realignFlags, result.output.realignFlags);
    EXPECT_EQ(mem_out.newPositions, result.output.newPositions);

    FpgaRunStats stats = sys.stats();
    EXPECT_EQ(stats.targetsProcessed, 1u);
    // 5 set_addr + set_target + set_size + 2 set_len + start.
    EXPECT_EQ(stats.commandsIssued, 10u);
    EXPECT_GT(stats.totalCycles, 0u);
    EXPECT_GT(stats.wallSeconds, 0.0);

    auto timeline = sys.timeline();
    ASSERT_EQ(timeline.size(), 1u);
    EXPECT_LE(timeline[0].dispatched, timeline[0].loaded);
    EXPECT_LE(timeline[0].loaded, timeline[0].computed);
    EXPECT_LE(timeline[0].computed, timeline[0].finished);
}

TEST(FpgaSystem, RejectsDoubleStart)
{
    Rng rng(2);
    MarshalledTarget target = tinyTarget(rng);
    FpgaSystem sys(AccelConfig::paperOptimized());
    sys.runMarshalledTarget(0, target, 0, [](IrComputeResult &&) {});
    sys.runMarshalledTarget(0, target, 1, [](IrComputeResult &&) {});
    // The second dispatch lands while the unit is busy.
    EXPECT_DEATH(sys.run(), "busy|reconfigured");
}

TEST(FpgaSystem, DmaSerializes)
{
    FpgaSystem sys(AccelConfig::paperOptimized());
    std::vector<Cycle> completions;
    sys.dmaToDevice(96 * 100, [&] {
        completions.push_back(sys.now());
    });
    sys.dmaToDevice(96 * 100, [&] {
        completions.push_back(sys.now());
    });
    sys.run();
    ASSERT_EQ(completions.size(), 2u);
    // Second transfer queues behind the first (100 cycles each at
    // 96 B/cycle, plus the fixed latency on each completion).
    EXPECT_EQ(completions[0],
              100 + AccelConfig().dmaLatency);
    EXPECT_EQ(completions[1],
              200 + AccelConfig().dmaLatency);
}

TEST(FpgaSystem, ConfigValidation)
{
    AccelConfig cfg;
    cfg.numUnits = 33; // beyond the 5-bit RoCC unit id
    EXPECT_DEATH({ FpgaSystem sys(cfg); }, "1..32");
    AccelConfig cfg2;
    cfg2.ddrChannels = 5;
    EXPECT_DEATH({ FpgaSystem sys(cfg2); }, "DDR");
}

/** Bare unit harness for command-validation tests. */
struct UnitHarness
{
    AccelConfig cfg = AccelConfig::paperOptimized();
    EventQueue eq;
    SharedChannel ddr{"ddr", 64, 30};
    DeviceMemory mem;
    IrUnitModel unit{0, &cfg, &eq, &ddr, &mem};

    IrCommand
    cmd(IrOpcode op, uint64_t rs1, uint64_t rs2 = 0)
    {
        IrCommand c;
        c.op = op;
        c.unit = 0;
        c.rs1Val = rs1;
        c.rs2Val = rs2;
        return c;
    }
};

TEST(UnitCommandValidation, RejectsBadBufferIndex)
{
    UnitHarness h;
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetAddr, 7, 0x1000)),
                 "buffer index");
}

TEST(UnitCommandValidation, RejectsBadSizes)
{
    UnitHarness h;
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetSize, 0, 10)),
                 "consensus count");
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetSize, 33, 10)),
                 "consensus count");
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetSize, 2, 257)),
                 "read count");
}

TEST(UnitCommandValidation, RejectsOverlongConsensus)
{
    UnitHarness h;
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetLen, 0, 2049)),
                 "length exceeds");
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::SetLen, 32, 100)),
                 "consensus id");
}

TEST(UnitCommandValidation, StartMustUseLaunch)
{
    UnitHarness h;
    EXPECT_DEATH(h.unit.deliver(h.cmd(IrOpcode::Start, 0)),
                 "launch");
}

TEST(UnitCommandValidation, LaunchNeedsFullConfiguration)
{
    UnitHarness h;
    // Only some buffers configured.
    h.unit.deliver(h.cmd(IrOpcode::SetAddr, 0, 0x1000));
    h.unit.deliver(h.cmd(IrOpcode::SetAddr, 1, 0x2000));
    EXPECT_DEATH(h.unit.launch(0, nullptr,
                               [](IrComputeResult &&) {}),
                 "unconfigured");
}

TEST(UnitCommandValidation, WrongUnitRouting)
{
    UnitHarness h;
    IrCommand c = h.cmd(IrOpcode::SetTarget, 5);
    c.unit = 3; // routed to unit 0 by mistake
    EXPECT_DEATH(h.unit.deliver(c), "routed");
}

TEST(ResourceModel, PaperDesignPoint)
{
    // Section III-A footnote 3: 32 optimized units reach 87.62 %
    // block RAM and 32.53 % CLB logic.
    ResourceEstimate est =
        estimateResources(AccelConfig::paperOptimized());
    EXPECT_NEAR(est.bramUtilization, 0.8762, 0.02);
    EXPECT_NEAR(est.clbUtilization, 0.3253, 0.02);
    EXPECT_TRUE(est.fits);
}

TEST(ResourceModel, ThirtyTwoUnitsIsTheMax)
{
    // "We were able to instantiate up to 32 IR units."
    EXPECT_EQ(maxUnitsThatFit(AccelConfig::paperOptimized()), 32u);
}

TEST(ResourceModel, BramScalesWithUnits)
{
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 8;
    ResourceEstimate small = estimateResources(cfg);
    cfg.numUnits = 16;
    ResourceEstimate big = estimateResources(cfg);
    EXPECT_LT(small.bramUtilization, big.bramUtilization);
    EXPECT_EQ(small.bramBlocksPerUnit, big.bramBlocksPerUnit);
}

TEST(ResourceModel, BufferInventoryMatchesFigure6)
{
    ResourceEstimate est =
        estimateResources(AccelConfig::paperOptimized());
    // Input buffers: 32x2048 + 2 x 256x256 bytes; outputs 256x1 +
    // 256x4 bytes; selector state on top.
    uint64_t buffer_bits = (32ull * 2048 + 2ull * 256 * 256 +
                            256 + 256ull * 4) * 8;
    EXPECT_GE(est.bramBitsPerUnit, buffer_bits);
    EXPECT_LT(est.bramBitsPerUnit, buffer_bits + 64 * 1024 * 8);
}

TEST(ResourceModel, ClbStaysLowEvenAtFullWidth)
{
    // The design is BRAM-bound, not logic-bound: even with 32-wide
    // datapaths CLB stays around a third of the device.
    ResourceEstimate est =
        estimateResources(AccelConfig::paperOptimized());
    EXPECT_LT(est.clbUtilization, 0.5);
}

} // namespace
} // namespace iracc
