/**
 * @file
 * Reproduces Figure 8 / Section IV "Data Parallelism": cycle-count
 * comparison of the scalar Hamming distance calculator (Figure 5,
 * one base compare per cycle) against the 32-wide parallel
 * calculator (Figure 8, one 32-byte block-RAM row per cycle with
 * the two-row consensus pipeline).
 *
 * The paper reports the data-parallel calculator contributed an
 * additional ~15x system speedup on top of async scheduling.
 */

#include <cstdio>
#include <vector>

#include "accel/ir_compute.hh"
#include "bench_common.hh"
#include "core/workload.hh"
#include "host/scheduler.hh"
#include "realign/stages.hh"
#include "sim/perf_monitor.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("fig8_data_parallel",
                  "Figure 8 -- parallel Hamming distance calculator "
                  "(32 compares+accumulates/cycle)");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "fig8_data_parallel",
        "Figure 8 -- parallel Hamming distance calculator");

    // Marshal every target of one mid-size chromosome.
    WorkloadParams params = bench::standardWorkload();
    params.chromosomes = {20};
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosomes[0];

    ContigPlan plan = planStage(wl.reference, chr.contig,
                                chr.reads);
    PreparedContig prepared = prepareStage(
        wl.reference, chr.reads, plan, /*marshal=*/true);
    const std::vector<MarshalledTarget> &targets =
        prepared.marshalled;

    Table table({"Width", "Pruning", "HDC cycles", "Selector",
                 "Speedup vs scalar", "Comparisons"});

    uint64_t scalar_cycles = 0, wide_cycles = 0;
    for (uint32_t width : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (bool prune : {true}) {
            uint64_t hdc = 0, sel = 0, cmps = 0;
            for (const auto &t : targets) {
                IrComputeResult res = irCompute(t, width, prune);
                hdc += res.hdcCycles;
                sel += res.selectorCycles;
                cmps += res.whd.comparisons;
            }
            if (width == 1)
                scalar_cycles = hdc;
            if (width == 32)
                wide_cycles = hdc;
            table.addRow({std::to_string(width),
                          prune ? "on" : "off",
                          std::to_string(hdc), std::to_string(sel),
                          Table::speedup(
                              static_cast<double>(scalar_cycles) /
                              static_cast<double>(hdc)),
                          std::to_string(cmps)});
        }
    }
    table.print();

    std::printf("\nPaper: the 32-wide calculator provided ~15x on "
                "top of the async system;\nwidth gains saturate "
                "below 32x because pruning already skips most "
                "offsets after\none or two 32-byte rows.\n");
    std::printf("Targets evaluated: %zu (Ch20)\n", targets.size());

    // System-level cross-check: run the full simulated accelerator
    // at width 1 and 32 with performance counters on, showing where
    // the datapath win lands in the per-unit cycle accounting.
    std::printf("\nFull-system counter view (async schedule, "
                "counters on):\n");
    Table sys_table({"Width", "Cycles", "Compute cyc", "Load cyc",
                     "Unit util", "DDR busy"});
    for (uint32_t width : {1u, 32u}) {
        AccelConfig cfg = AccelConfig::paperOptimized();
        cfg.dataParallelWidth = width;
        cfg.perfCounters = true;
        FleetScheduleResult res = scheduleFleetTargets(
            FleetConfig::singleCard(cfg), targets,
            SchedulePolicy::AsynchronousParallel);
        uint64_t compute = 0, load = 0;
        for (const auto &u : res.perf.units) {
            compute += u.computeCycles;
            load += u.loadCycles;
        }
        sys_table.addRow(
            {std::to_string(width),
             std::to_string(res.perf.totalCycles),
             std::to_string(compute), std::to_string(load),
             Table::pct(res.perf.meanUnitUtilization()),
             Table::pct(res.perf.channelOccupancy("ddr0"))});
    }
    sys_table.print();
    std::printf("The width-32 datapath collapses compute cycles "
                "while load cycles stay fixed,\nso the system "
                "shifts from compute-bound toward load-bound -- "
                "the saturation\nFigure 8 shows.\n");

    report.addValue("scalarHdcCycles",
                    static_cast<double>(scalar_cycles));
    report.addValue("wide32HdcCycles",
                    static_cast<double>(wide_cycles));
    report.addValue("width32Speedup",
                    wide_cycles
                        ? static_cast<double>(scalar_cycles) /
                              static_cast<double>(wide_cycles)
                        : 0.0);
    report.addTable("widthSweep", table);
    report.addTable("systemView", sys_table);
    report.writeOutput();
    return 0;
}
