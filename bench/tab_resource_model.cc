/**
 * @file
 * Reproduces the Section III-A / Figure 6 sizing analysis: block
 * RAM and CLB utilization on the Xilinx Virtex UltraScale+ VU9P as
 * a function of IR unit count, including the paper's deployed
 * design point (32 units, 87.62 % BRAM, 32.53 % CLB) and the
 * "how many units fit?" answer.
 */

#include <cstdio>

#include "accel/resource_model.hh"
#include "bench_common.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    bench::banner("tab_resource_model",
                  "Section III-A footnote 3 / Figure 6 -- VU9P "
                  "resource utilization vs unit count");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "tab_resource_model",
        "Section III-A / Figure 6 -- VU9P utilization vs units");

    std::printf("Per-unit buffer inventory (Figure 6 structure "
                "sizes):\n");
    Table bufs({"Buffer", "Geometry", "Bytes"});
    bufs.addRow({"Input #1 (consensus bases)", "32 x 2048 B",
                 "65536"});
    bufs.addRow({"Input #2 (read bases)", "256 x 256 B", "65536"});
    bufs.addRow({"Input #3 (read quality)", "256 x 256 B", "65536"});
    bufs.addRow({"Output #1 (realign?)", "256 x 1 B", "256"});
    bufs.addRow({"Output #2 (new positions)", "256 x 4 B", "1024"});
    bufs.addRow({"Selector dist/pos state", "3 x 256 x 6 B",
                 "4608"});
    bufs.print();

    std::printf("\nUtilization sweep (VU9P: %u BRAM36 blocks):\n",
                kVu9pBram36Blocks);
    Table table({"Units", "BRAM blocks", "BRAM util", "CLB util",
                 "Fits @125MHz"});
    AccelConfig cfg = AccelConfig::paperOptimized();
    for (uint32_t units : {1u, 4u, 8u, 16u, 24u, 32u, 33u, 40u}) {
        cfg.numUnits = units;
        // The RoCC unit-id field caps deployable units at 32; the
        // estimate is still informative beyond it.
        ResourceEstimate est = estimateResources(cfg);
        table.addRow({std::to_string(units),
                      std::to_string(est.bramBlocksTotal),
                      Table::pct(est.bramUtilization, 2),
                      Table::pct(est.clbUtilization, 2),
                      est.fits && units <= 32 ? "yes" : "no"});
    }
    table.print();

    cfg.numUnits = 32;
    ResourceEstimate paper = estimateResources(cfg);
    std::printf("\nDeployed design point: 32 units -> %s BRAM "
                "(paper 87.62%%), %s CLB (paper 32.53%%)\n",
                Table::pct(paper.bramUtilization, 2).c_str(),
                Table::pct(paper.clbUtilization, 2).c_str());
    std::printf("Max units that fit: %u (paper: 32; the unit count "
                "is limited by block RAM,\nnot logic)\n",
                maxUnitsThatFit(AccelConfig::paperOptimized()));

    report.addValue("bramUtilization32", paper.bramUtilization);
    report.addValue("clbUtilization32", paper.clbUtilization);
    report.addValue("maxUnits",
                    maxUnitsThatFit(AccelConfig::paperOptimized()));
    report.addTable("buffers", bufs);
    report.addTable("utilizationSweep", table);
    report.writeOutput();
    return 0;
}
