/**
 * @file
 * Reproduces Figure 7: synchronous-parallel vs asynchronous-
 * parallel scheduling of 8 same-sized IR targets on 4 IR units.
 *
 * In the paper's toy experiment the targets are stripped-down real
 * targets from Ch22 (2 consensuses, 8 reads each); although the
 * *sizes* are equal, computation pruning makes the compute times
 * vary ~8x, so the synchronous flush leaves 3 of 4 units idle most
 * of the time while the asynchronous scheme back-fills them.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench_common.hh"
#include "host/scheduler.hh"
#include "realign/marshal.hh"
#include "sim/perf_monitor.hh"
#include "util/argparse.hh"
#include "util/rng.hh"
#include "util/table.hh"

using namespace iracc;

namespace {

/**
 * Build 8 same-sized targets (2 consensuses, 8 reads) whose reads
 * match the consensus at different error densities so pruning cuts
 * off very different amounts of work -- the Figure 7 setup.
 */
std::vector<MarshalledTarget>
figure7Targets(Rng &rng)
{
    std::vector<MarshalledTarget> out;
    for (int t = 0; t < 8; ++t) {
        IrTargetInput input;
        input.windowStart = 10000 + t * 2000;
        const size_t cons_len = 1200;
        const size_t read_len = 150;
        input.windowEnd = input.windowStart +
                          static_cast<int64_t>(cons_len);
        BaseSeq ref;
        for (size_t b = 0; b < cons_len; ++b)
            ref.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(ref);
        BaseSeq alt = ref;
        alt.erase(cons_len / 2, 3);
        input.consensuses.push_back(alt);
        input.events.resize(2);

        // Target 3 gets reads unrelated to the consensus: every
        // offset looks equally bad, pruning helps little, and its
        // compute time is ~8x the others (the paper's "compute
        // time for target 3 is about 8 times longer than target
        // 1").  All other targets' reads come from the consensus,
        // so pruning cuts them off quickly.  Same sizes, wildly
        // different runtimes.
        bool noisy = t == 3;
        for (int j = 0; j < 8; ++j) {
            BaseSeq r;
            if (noisy) {
                for (size_t b = 0; b < read_len; ++b)
                    r.push_back(kConcreteBases[rng.below(4)]);
            } else {
                size_t off = rng.below(cons_len - read_len);
                r = ref.substr(off, read_len);
            }
            input.addRead(r, QualSeq(read_len, 30));
            input.readIndices.push_back(static_cast<uint32_t>(j));
        }
        out.push_back(marshalTarget(input));
    }
    return out;
}

void
printTimeline(const char *label, const FleetScheduleResult &res,
              double clock_mhz)
{
    std::printf("%s (makespan %llu cycles = %.1f us)\n", label,
                static_cast<unsigned long long>(res.makespan),
                static_cast<double>(res.makespan) / clock_mhz);

    auto timeline = res.timeline;
    std::sort(timeline.begin(), timeline.end(),
              [](const UnitTimelineEntry &a,
                 const UnitTimelineEntry &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.dispatched < b.dispatched;
              });
    Table t({"Unit", "Target", "Dispatch", "Loaded", "Computed",
             "Finished"});
    for (const auto &e : timeline) {
        t.addRow({std::to_string(e.unit),
                  std::to_string(e.targetId),
                  std::to_string(e.dispatched),
                  std::to_string(e.loaded),
                  std::to_string(e.computed),
                  std::to_string(e.finished)});
    }
    t.print();
    std::printf("Mean unit utilization: %s\n\n",
                Table::pct(res.fpga.meanUnitUtilization).c_str());
}

/** Counter-backed summary of one policy's run. */
void
printCounters(const char *label, const FleetScheduleResult &res)
{
    std::printf("--- %s performance counters ---\n%s\n", label,
                renderPerfSummary(res.perf).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("fig7_scheduling",
                  "Figure 7 -- synchronous vs asynchronous "
                  "scheduling, 8 targets / 4 units");

    obs::BenchReport report = bench::makeReport(
        argc, argv, "fig7_scheduling",
        "Figure 7 -- sync vs async scheduling, 8 targets / 4 "
        "units");

    // `fig7_scheduling --trace out.json` additionally dumps both
    // runs as one Chrome trace (sync = process 0, async = 1).
    std::string trace_path;
    if (argc >= 3 && std::strcmp(argv[1], "--trace") == 0) {
        trace_path = argv[2];
        requireWritable(trace_path);
    }

    Rng rng(0xF16007);
    auto targets = figure7Targets(rng);

    AccelConfig cfg = AccelConfig::paperOptimized();
    cfg.numUnits = 4;
    cfg.dataParallelWidth = 1; // scalar units, as in the paper's toy
    cfg.perfCounters = true;
    cfg.perfTrace = !trace_path.empty();

    const FleetConfig one_card = FleetConfig::singleCard(cfg);
    FleetScheduleResult sync_res = scheduleFleetTargets(
        one_card, targets, SchedulePolicy::SynchronousParallel);
    printTimeline("SYNCHRONOUS-PARALLEL (Figure 7 top)", sync_res,
                  cfg.clockMhz);
    printCounters("SYNCHRONOUS-PARALLEL", sync_res);

    FleetScheduleResult async_res = scheduleFleetTargets(
        one_card, targets, SchedulePolicy::AsynchronousParallel);
    printTimeline("ASYNCHRONOUS-PARALLEL (Figure 7 bottom)",
                  async_res, cfg.clockMhz);
    printCounters("ASYNCHRONOUS-PARALLEL", async_res);

    double gain = static_cast<double>(sync_res.makespan) /
                  static_cast<double>(async_res.makespan);
    std::printf("Async/sync makespan gain on the toy: %s\n",
                Table::speedup(gain).c_str());
    std::printf("Straggler wait removed by async scheduling: mean "
                "unit idle gap %s -> %s cycles\n",
                Table::num(sync_res.perf.unitIdleGap.count()
                               ? sync_res.perf.unitIdleGap.mean()
                               : 0.0,
                           0)
                    .c_str(),
                Table::num(async_res.perf.unitIdleGap.count()
                               ? async_res.perf.unitIdleGap.mean()
                               : 0.0,
                           0)
                    .c_str());
    std::printf("Paper: async scheduling contributed an average "
                "6.2x across the full workload.\n");

    report.addValue("asyncGain", gain);
    report.addCount("syncMakespanCycles", sync_res.makespan);
    report.addCount("asyncMakespanCycles", async_res.makespan);
    report.addValue("syncUnitUtilization",
                    sync_res.fpga.meanUnitUtilization);
    report.addValue("asyncUnitUtilization",
                    async_res.fpga.meanUnitUtilization);
    // Per-target latency percentiles from the always-on flight
    // recorder path (obs/latency_histogram.hh).  Cycle-domain, so
    // the fig7 catch-all Exact rule gates them bit-for-bit; async
    // scheduling shows up as a much shorter tail than sync.
    report.addCount("syncTargetLatencyP50Cycles",
                    sync_res.targetLatencyCycles.quantile(0.50));
    report.addCount("syncTargetLatencyP99Cycles",
                    sync_res.targetLatencyCycles.quantile(0.99));
    report.addCount("asyncTargetLatencyP50Cycles",
                    async_res.targetLatencyCycles.quantile(0.50));
    report.addCount("asyncTargetLatencyP99Cycles",
                    async_res.targetLatencyCycles.quantile(0.99));

    // --- Multi-card fleet scaling (Section VI deployment view) ---
    // 32 targets (four fresh draws of the Figure 7 generator, so
    // four ~8x stragglers land at different spots) scheduled in
    // shards of 2 across 1/2/4 cards with work stealing.  Cards
    // run private virtual timelines; the fleet makespan is the
    // slowest card's final cycle, and modeled speedup is the
    // 1-card makespan over the N-card one.
    std::printf("\n--- Multi-card fleet scaling (32 targets, "
                "shards of 2, stealing on) ---\n");
    std::vector<MarshalledTarget> fleet_targets = targets;
    for (int rep = 1; rep < 4; ++rep) {
        auto more = figure7Targets(rng);
        fleet_targets.insert(fleet_targets.end(), more.begin(),
                             more.end());
    }

    Table fleet_table({"Cards", "Makespan", "Speedup", "Steals",
                       "Busy cycles per card"});
    uint64_t makespan1 = 0;
    for (uint32_t cards : {1u, 2u, 4u}) {
        FleetConfig fc;
        fc.card = cfg;
        fc.card.perfCounters = false;
        fc.card.perfTrace = false;
        fc.cards = cards;
        fc.stealing = true;
        fc.shardTargets = 2;
        CardFleet fleet(fc);
        FleetLease lease = fleet.lease();
        FleetScheduleResult res = scheduleFleetTargets(
            lease, fleet_targets,
            SchedulePolicy::AsynchronousParallel);
        if (cards == 1)
            makespan1 = res.makespan;
        double speedup = static_cast<double>(makespan1) /
                         static_cast<double>(res.makespan);
        std::string busy;
        for (const FleetCardExecStats &row : res.fleet.cards) {
            if (!busy.empty())
                busy += " / ";
            busy += std::to_string(row.busyCycles);
        }
        fleet_table.addRow({std::to_string(cards),
                            std::to_string(res.makespan),
                            Table::speedup(speedup),
                            std::to_string(res.fleet.steals()),
                            busy});
        report.addCount("fleetMakespan" + std::to_string(cards) +
                            "Cycles",
                        res.makespan);
        if (cards > 1) {
            report.addValue("fleetSpeedup" + std::to_string(cards),
                            speedup);
            report.addValue("fleetSteals" + std::to_string(cards),
                            static_cast<double>(
                                res.fleet.steals()));
        }
    }
    fleet_table.print();
    std::printf("Placement, shard homes, and datapath results are "
                "deterministic, so the modeled\nspeedups gate "
                "exactly (tools/iracc_bench --check).\n");

    report.writeOutput();

    if (!trace_path.empty()) {
        PerfReport all;
        all.merge(sync_res.perf, 0);
        all.merge(async_res.perf, 1);
        std::ofstream tf(trace_path);
        fatal_if(!tf, "cannot write trace '%s'",
                 trace_path.c_str());
        writeChromeTrace(tf, all, cfg.clockMhz);
        std::printf("wrote %s (%zu trace events)\n",
                    trace_path.c_str(), all.trace.size());
    }
    return 0;
}
