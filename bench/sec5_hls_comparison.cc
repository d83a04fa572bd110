/**
 * @file
 * Reproduces the Section V-B "Comparison with HLS" result: the
 * SDAccel/OpenCL build of the IR accelerator only reached
 * 1.3-3.1x over GATK3 because (a) Xilinx OpenCL caps the
 * asynchronously-schedulable compute units at 16, (b) HLS could
 * not extract the 32-wide data parallelism from the kernel due to
 * ambiguous memory dependencies, and (c) the pruning control flow
 * defeated pipelining.  The hand-built RTL design (32 units,
 * 32-wide, pruning) is shown next to it.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("sec5_hls_comparison",
                  "Section V-B -- SDAccel/HLS build vs hand-built "
                  "RTL (both vs GATK3)");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "sec5_hls_comparison",
        "Section V-B -- SDAccel/HLS build vs hand-built RTL");

    WorkloadParams params = bench::standardWorkload();
    // A representative subset keeps this comparison quick; the
    // full sweep lives in fig9_speedup.
    if (params.chromosomes.empty())
        params.chromosomes = {18, 19, 20, 21, 22};
    GenomeWorkload wl = buildWorkload(params);

    RealignSession gatk3 = makeSession("gatk3");
    RealignSession hls = makeSession("hls");
    RealignSession rtl = makeSession("iracc");

    Table table({"Chrom", "GATK3(s)", "HLS(s)", "HLS speedup",
                 "RTL speedup"});
    std::vector<double> hls_speedups, rtl_speedups;
    for (const auto &chr : wl.chromosomes) {
        auto seconds = [&](const RealignSession &s) {
            std::vector<Read> reads = chr.reads;
            return s.runContig(wl.reference, chr.contig, reads)
                .seconds;
        };
        double g = seconds(gatk3);
        double h = seconds(hls);
        double rt = seconds(rtl);
        hls_speedups.push_back(g / h);
        rtl_speedups.push_back(g / rt);
        table.addRow({"Ch" + std::to_string(chr.number),
                      Table::num(g, 3), Table::num(h, 3),
                      Table::speedup(g / h),
                      Table::speedup(g / rt)});
    }
    table.addRow({"GMEAN", "-", "-",
                  Table::speedup(geomean(hls_speedups)),
                  Table::speedup(geomean(rtl_speedups))});
    table.print();

    std::printf("\nPaper: HLS reached only 1.3-3.1x over GATK3 "
                "(16-unit OpenCL cap, no extracted\ndata "
                "parallelism, no pruning); the RTL design reached "
                "81.3x.\n");

    report.addValue("hlsSpeedupGeomean", geomean(hls_speedups));
    report.addValue("rtlSpeedupGeomean", geomean(rtl_speedups));
    report.addTable("perChromosome", table);
    report.writeOutput();
    return 0;
}
