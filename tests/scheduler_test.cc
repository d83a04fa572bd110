/**
 * @file
 * Tests for the synchronous/asynchronous target schedulers,
 * including a reproduction of the paper's Figure 7 toy experiment
 * (8 same-sized targets, 4 units) where pruning-induced variance
 * makes the synchronous scheme idle most units.
 */

#include <gtest/gtest.h>

#include "core/workload.hh"
#include "host/scheduler.hh"
#include "realign/stages.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** A target whose compute time is controlled via read count. */
MarshalledTarget
syntheticTarget(Rng &rng, size_t num_reads, size_t cons_len,
                size_t read_len, size_t num_cons = 2)
{
    IrTargetInput input;
    input.windowStart = 1000;
    input.windowEnd = 1000 + static_cast<int64_t>(cons_len);
    BaseSeq ref;
    for (size_t b = 0; b < cons_len; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    for (size_t i = 1; i < num_cons; ++i) {
        BaseSeq alt = ref;
        for (int e = 0; e < 4; ++e)
            alt[rng.below(alt.size())] = kConcreteBases[rng.below(4)];
        input.consensuses.push_back(alt);
    }
    input.events.resize(input.consensuses.size());
    for (size_t j = 0; j < num_reads; ++j) {
        size_t off = rng.below(cons_len - read_len + 1);
        BaseSeq r = ref.substr(off, read_len);
        QualSeq q(read_len, 30);
        input.addRead(r, q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return marshalTarget(input);
}

TEST(Scheduler, BothPoliciesCompleteAllTargets)
{
    Rng rng(5);
    std::vector<MarshalledTarget> targets;
    for (int t = 0; t < 23; ++t)
        targets.push_back(syntheticTarget(rng, 4 + rng.below(12),
                                          120 + rng.below(200), 40));

    for (auto policy : {SchedulePolicy::SynchronousParallel,
                        SchedulePolicy::AsynchronousParallel}) {
        AccelConfig cfg = AccelConfig::paperOptimized();
        cfg.numUnits = 4;
        FleetScheduleResult res = scheduleFleetTargets(
            FleetConfig::singleCard(cfg), targets, policy);
        EXPECT_EQ(res.results.size(), targets.size());
        EXPECT_EQ(res.fpga.targetsProcessed, targets.size());
        EXPECT_EQ(res.timeline.size(), targets.size());
        for (const auto &r : res.results)
            EXPECT_FALSE(r.output.realignFlags.empty());
    }
}

TEST(Scheduler, PoliciesProduceIdenticalResults)
{
    Rng rng(17);
    std::vector<MarshalledTarget> targets;
    for (int t = 0; t < 16; ++t)
        targets.push_back(syntheticTarget(rng, 6, 150, 50, 3));

    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 4;
    FleetScheduleResult a = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::SynchronousParallel);
    FleetScheduleResult b = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::AsynchronousParallel);

    for (size_t t = 0; t < targets.size(); ++t) {
        EXPECT_EQ(a.results[t].bestConsensus,
                  b.results[t].bestConsensus);
        EXPECT_EQ(a.results[t].output.realignFlags,
                  b.results[t].output.realignFlags);
        EXPECT_EQ(a.results[t].output.newPositions,
                  b.results[t].output.newPositions);
    }
}

TEST(Scheduler, Figure7AsyncBeatsSyncUnderVariance)
{
    // The Figure 7 toy setup: targets of equal size whose *compute*
    // time varies because pruning cuts off different fractions of
    // work; 4 units, 8 targets.  Here variance is induced directly
    // with mixed target sizes, which the synchronous barrier
    // serializes on.
    Rng rng(23);
    std::vector<MarshalledTarget> targets;
    for (int t = 0; t < 8; ++t) {
        // Alternate small/large compute so every sync batch of 4
        // has one straggler ~8x longer than the others.
        size_t reads = (t % 4 == 3) ? 32 : 4;
        targets.push_back(syntheticTarget(rng, reads, 400, 64));
    }

    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 4;
    cfg.dataParallelWidth = 1;

    FleetScheduleResult sync_res = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::SynchronousParallel);
    FleetScheduleResult async_res = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::AsynchronousParallel);

    EXPECT_LT(async_res.makespan, sync_res.makespan);

    // Async keeps units busier.
    EXPECT_GT(async_res.fpga.meanUnitUtilization,
              sync_res.fpga.meanUnitUtilization);
}

TEST(Scheduler, AsyncUtilizationHighOnUniformWork)
{
    Rng rng(31);
    std::vector<MarshalledTarget> targets;
    for (int t = 0; t < 64; ++t)
        targets.push_back(syntheticTarget(rng, 8, 256, 64));

    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 8;
    FleetScheduleResult res = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::AsynchronousParallel);
    EXPECT_GT(res.fpga.meanUnitUtilization, 0.5);
}

TEST(Scheduler, TimelineIsWellFormed)
{
    Rng rng(41);
    std::vector<MarshalledTarget> targets;
    for (int t = 0; t < 10; ++t)
        targets.push_back(syntheticTarget(rng, 6, 200, 60));

    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 2;
    FleetScheduleResult res = scheduleFleetTargets(
        FleetConfig::singleCard(cfg), targets,
        SchedulePolicy::AsynchronousParallel);

    for (const auto &e : res.timeline) {
        EXPECT_LE(e.dispatched, e.loaded);
        EXPECT_LE(e.loaded, e.computed);
        EXPECT_LE(e.computed, e.finished);
        EXPECT_LT(e.unit, cfg.numUnits);
    }
}

} // namespace
} // namespace iracc
