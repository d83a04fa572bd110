/**
 * @file
 * Tests for the performance-counter and trace layer: conservation
 * invariants (phase cycles sum to busy, busy+idle covers the run,
 * DMA bytes match the marshalled payload), report merging, the
 * Chrome trace-event exporter round-tripping through the JSON
 * parser, and the counters-off default.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "host/scheduler.hh"
#include "realign/marshal.hh"
#include "sim/perf_monitor.hh"
#include "util/json.hh"
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
        input.addRead(ref.substr(off, read_len),
                      QualSeq(read_len, 30));
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return marshalTarget(input);
}

std::vector<MarshalledTarget>
makeTargets(uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<MarshalledTarget> out;
    for (int t = 0; t < n; ++t)
        out.push_back(syntheticTarget(rng, 4 + rng.below(10),
                                      120 + rng.below(200), 40));
    return out;
}

FleetScheduleResult
runScheduled(const std::vector<MarshalledTarget> &targets,
             SchedulePolicy policy, bool trace = false)
{
    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 4;
    cfg.perfCounters = true;
    cfg.perfTrace = trace;
    return scheduleFleetTargets(FleetConfig::singleCard(cfg),
                                targets, policy);
}

PerfReport
runWithCounters(const std::vector<MarshalledTarget> &targets,
                SchedulePolicy policy, bool trace = false)
{
    return runScheduled(targets, policy, trace).perf;
}

TEST(PerfMonitor, DisabledByDefault)
{
    AccelConfig cfg = AccelConfig::paperOptimized();
    FpgaSystem sys(cfg);
    EXPECT_EQ(sys.perf(), nullptr);
    PerfReport rep = sys.perfReport();
    EXPECT_FALSE(rep.enabled);
    EXPECT_TRUE(rep.units.empty());
}

TEST(PerfMonitor, CycleConservationPerUnit)
{
    auto targets = makeTargets(11, 25);
    for (auto policy : {SchedulePolicy::SynchronousParallel,
                        SchedulePolicy::AsynchronousParallel}) {
        FleetScheduleResult run = runScheduled(targets, policy);
        const PerfReport &rep = run.perf;
        ASSERT_TRUE(rep.enabled);
        ASSERT_EQ(rep.units.size(), 4u);
        EXPECT_GT(rep.totalCycles, 0u);

        uint64_t total_targets = 0;
        for (const auto &u : rep.units) {
            // Phase cycles partition busy time exactly.
            EXPECT_EQ(u.loadCycles + u.computeCycles + u.writeCycles,
                      u.busyCycles)
                << "unit " << u.unit;
            // Busy + idle covers the whole simulation.
            EXPECT_EQ(u.busyCycles + u.idleCycles, rep.totalCycles)
                << "unit " << u.unit;
            total_targets += u.targets;
        }
        EXPECT_EQ(total_targets, targets.size());
        // Every target sampled exactly once in each distribution.
        EXPECT_EQ(rep.targetCompute.count(), targets.size());
        EXPECT_EQ(rep.cmdQueueWait.count(), targets.size());
        EXPECT_EQ(run.targetLatencyCycles.count(), targets.size());
    }
}

TEST(PerfMonitor, CycleConservationPerCardAcrossFleet)
{
    auto targets = makeTargets(17, 30);
    FleetConfig fc;
    fc.card = AccelConfig::paperOptimized();
    fc.card.numUnits = 4;
    fc.card.perfCounters = true;
    fc.cards = 3;
    fc.shardTargets = 4;
    CardFleet fleet(fc);
    FleetLease lease = fleet.lease();
    FleetScheduleResult res = scheduleFleetTargets(
        lease, targets, SchedulePolicy::AsynchronousParallel);

    // Every card carries its own PerfMonitor; the conservation
    // invariants must hold per card against that card's private
    // timeline, not the fleet makespan.
    ASSERT_EQ(res.cardPerf.size(), fc.cards);
    uint64_t total_targets = 0;
    uint64_t summed_cycles = 0;
    for (uint32_t k = 0; k < fc.cards; ++k) {
        const PerfReport &rep = res.cardPerf[k];
        ASSERT_TRUE(rep.enabled) << "card " << k;
        ASSERT_EQ(rep.units.size(), 4u) << "card " << k;
        EXPECT_EQ(rep.totalCycles,
                  res.fleet.cards[k].busyCycles)
            << "card " << k;
        summed_cycles += rep.totalCycles;
        for (const auto &u : rep.units) {
            EXPECT_EQ(u.loadCycles + u.computeCycles +
                          u.writeCycles,
                      u.busyCycles)
                << "card " << k << " unit " << u.unit;
            EXPECT_EQ(u.busyCycles + u.idleCycles, rep.totalCycles)
                << "card " << k << " unit " << u.unit;
            total_targets += u.targets;
        }
    }
    EXPECT_EQ(total_targets, targets.size());

    // The merged report spans one pid per card and adds the
    // per-card cycle totals; the fleet makespan is the slowest
    // card, never the sum.
    EXPECT_EQ(res.perf.pidSpan, fc.cards);
    EXPECT_EQ(res.perf.totalCycles, summed_cycles);
    EXPECT_GT(summed_cycles, res.makespan);
    EXPECT_EQ(res.fpga.totalCycles, res.makespan);
}

TEST(PerfMonitor, WhdCountersConsistentAcrossScheduler)
{
    auto targets = makeTargets(31, 20);
    for (auto policy : {SchedulePolicy::SynchronousParallel,
                        SchedulePolicy::AsynchronousParallel}) {
        AccelConfig cfg = AccelConfig::paperOptimized();
        cfg.numUnits = 4;
        FleetScheduleResult res = scheduleFleetTargets(
            FleetConfig::singleCard(cfg), targets, policy);

        // The system-level counters are exactly the sum of the
        // per-target datapath counters, and executed work never
        // exceeds the would-be unpruned work.
        WhdStats sum;
        for (const IrComputeResult &r : res.results) {
            EXPECT_LE(r.whd.comparisons, r.whd.comparisonsUnpruned);
            EXPECT_LE(r.whd.offsetsPruned, r.whd.offsetsEvaluated);
            sum.merge(r.whd);
        }
        EXPECT_EQ(res.fpga.whd.comparisons, sum.comparisons);
        EXPECT_EQ(res.fpga.whd.comparisonsUnpruned,
                  sum.comparisonsUnpruned);
        EXPECT_EQ(res.fpga.whd.offsetsEvaluated,
                  sum.offsetsEvaluated);
        EXPECT_EQ(res.fpga.whd.offsetsPruned, sum.offsetsPruned);
        EXPECT_LE(res.fpga.whd.comparisons,
                  res.fpga.whd.comparisonsUnpruned);
        // These targets' reads match well somewhere, so pruning
        // (on in the paper-optimized config) must actually bite.
        EXPECT_LT(res.fpga.whd.comparisons,
                  res.fpga.whd.comparisonsUnpruned);
        EXPECT_GT(res.fpga.whd.offsetsPruned, 0u);
    }
}

TEST(PerfMonitor, DmaBytesMatchMarshalledPayload)
{
    auto targets = makeTargets(23, 18);
    PerfReport rep = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel);

    uint64_t expect = 0;
    for (const auto &t : targets)
        expect += t.totalInputBytes();
    // The scheduler DMAs exactly the three marshalled input arrays
    // of every target; the channel counter must agree.
    EXPECT_EQ(rep.channelBytes("pcie-dma"), expect);

    // Three transfers per target (consensus, bases, quals).
    for (const auto &ch : rep.channels) {
        if (ch.name != "pcie-dma")
            continue;
        EXPECT_EQ(ch.transfers, targets.size() * 3);
        EXPECT_GT(ch.busyCycles, 0u);
        // A transfer is never shorter than its queue-free service
        // time: total latency >= wait + occupancy.
        EXPECT_GE(ch.latencyCycles, ch.waitCycles + ch.busyCycles);
    }
}

TEST(PerfMonitor, BufferWatermarksWithinCapacity)
{
    auto targets = makeTargets(31, 12);
    PerfReport rep = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel);
    ASSERT_EQ(rep.buffers.size(), 5u);
    for (const auto &b : rep.buffers) {
        EXPECT_GT(b.highWater, 0u) << b.name;
        EXPECT_LE(b.highWater, b.capacity) << b.name;
    }
    EXPECT_GT(rep.deviceMemHighWater, 0u);
}

TEST(PerfMonitor, MergeAddsCountersAndRetagsTrace)
{
    auto targets = makeTargets(7, 10);
    PerfReport a = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel, true);
    PerfReport b = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel, true);

    PerfReport all;
    all.merge(a, 0);
    all.merge(b, 1);
    EXPECT_TRUE(all.enabled);
    EXPECT_EQ(all.totalCycles, a.totalCycles + b.totalCycles);
    EXPECT_EQ(all.channelBytes("pcie-dma"),
              a.channelBytes("pcie-dma") +
                  b.channelBytes("pcie-dma"));
    ASSERT_EQ(all.units.size(), a.units.size());
    EXPECT_EQ(all.units[0].busyCycles,
              a.units[0].busyCycles + b.units[0].busyCycles);
    EXPECT_EQ(all.targetCompute.count(),
              a.targetCompute.count() + b.targetCompute.count());
    EXPECT_EQ(all.trace.size(), a.trace.size() + b.trace.size());
    bool saw_pid1 = false;
    for (const auto &e : all.trace)
        saw_pid1 |= e.pid == 1;
    EXPECT_TRUE(saw_pid1);
}

TEST(PerfMonitor, TraceJsonRoundTrips)
{
    auto targets = makeTargets(42, 8);
    PerfReport rep = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel, true);
    ASSERT_FALSE(rep.trace.empty());

    std::ostringstream os;
    writeChromeTrace(os, rep, 125.0);

    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;
    ASSERT_TRUE(root.has("traceEvents"));
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind(), JsonValue::Kind::Array);
    // Every span plus the process/thread metadata records.
    EXPECT_GE(events.size(), rep.trace.size());

    size_t spans = 0, metas = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        ASSERT_EQ(e.kind(), JsonValue::Kind::Object);
        ASSERT_TRUE(e.has("ph"));
        ASSERT_TRUE(e.has("name"));
        ASSERT_TRUE(e.has("pid"));
        ASSERT_TRUE(e.has("tid"));
        const std::string &ph = e.at("ph").asString();
        if (ph == "X") {
            ++spans;
            ASSERT_TRUE(e.has("ts"));
            ASSERT_TRUE(e.has("dur"));
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
        } else {
            EXPECT_EQ(ph, "M");
            ++metas;
        }
    }
    EXPECT_EQ(spans, rep.trace.size());
    EXPECT_GT(metas, 0u);
}

TEST(PerfMonitor, TraceEscapesHostileNames)
{
    // Regression: track/span names containing quotes, backslashes,
    // newlines, and control characters must produce valid JSON.
    PerfReport rep;
    rep.enabled = true;
    rep.totalCycles = 100;
    rep.trackNames.emplace_back(7, "unit \"7\"\\\n\x02");
    TraceEvent ev;
    ev.name = "t0 \"compute\"\\";
    ev.cat = "unit\n";
    ev.pid = 2;
    ev.tid = 7;
    ev.start = 10;
    ev.duration = 30;
    rep.trace.push_back(ev);

    std::ostringstream os;
    writeChromeTrace(os, rep, 125.0);
    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;

    bool saw_span = false, saw_track = false;
    const JsonValue &events = root.at("traceEvents");
    for (size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.at(i);
        const std::string &ph = e.at("ph").asString();
        if (ph == "X" && e.at("name").asString() ==
                             "t0 \"compute\"\\") {
            saw_span = true;
            EXPECT_EQ(e.at("cat").asString(), "unit\n");
        }
        if (ph == "M" && e.at("name").asString() == "thread_name" &&
            e.at("args").at("name").asString() ==
                "unit \"7\"\\\n\x02") {
            saw_track = true;
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_track);
}

TEST(PerfMonitor, PerfJsonParses)
{
    auto targets = makeTargets(3, 6);
    PerfReport rep = runWithCounters(
        targets, SchedulePolicy::AsynchronousParallel);
    std::ostringstream os;
    writePerfJson(os, rep);
    std::string err;
    JsonValue root = JsonValue::parse(os.str(), &err);
    ASSERT_EQ(root.kind(), JsonValue::Kind::Object) << err;
    EXPECT_TRUE(root.has("totalCycles"));
    EXPECT_TRUE(root.has("units"));
    EXPECT_EQ(root.at("units").size(), rep.units.size());
}

TEST(JsonParser, HandlesScalarsAndNesting)
{
    std::string err;
    JsonValue v = JsonValue::parse(
        "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, "
        "\"d\": null}, \"s\": \"q\\\"\\u0041\\n\"}",
        &err);
    ASSERT_EQ(v.kind(), JsonValue::Kind::Object) << err;
    EXPECT_DOUBLE_EQ(v.at("a").at(1).asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(v.at("a").at(2).asNumber(), -300.0);
    EXPECT_TRUE(v.at("b").at("c").asBool());
    EXPECT_EQ(v.at("b").at("d").kind(), JsonValue::Kind::Null);
    EXPECT_EQ(v.at("s").asString(), "q\"A\n");
}

TEST(JsonParser, RejectsMalformedInput)
{
    std::string err;
    for (const char *bad :
         {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
          "{\"a\":1} trailing"}) {
        JsonValue v = JsonValue::parse(bad, &err);
        EXPECT_EQ(v.kind(), JsonValue::Kind::Null) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

} // namespace
} // namespace iracc
