/**
 * @file
 * Ablation of computation pruning (Section III-A): the paper
 * states pruning eliminates more than 50 % of the Hamming-distance
 * computations on their data set while adding only a small
 * register and compare.  This bench measures, per chromosome, the
 * comparisons executed with and without pruning, the fraction
 * eliminated, and the resulting accelerator cycle reduction at
 * scalar and 32-wide datapaths.
 */

#include <cstdio>
#include <numeric>

#include "accel/ir_compute.hh"
#include "bench_common.hh"
#include "core/workload.hh"
#include "realign/realigner.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("ablation_pruning",
                  "Section III-A -- computation pruning ablation "
                  "(paper: >50% of computations eliminated)");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "ablation_pruning",
        "Section III-A -- computation pruning ablation");

    WorkloadParams params = bench::standardWorkload();
    if (params.chromosomes.empty())
        params.chromosomes = {17, 18, 19, 20, 21, 22};
    GenomeWorkload wl = buildWorkload(params);

    Table table({"Chrom", "Unpruned cmp", "Pruned cmp",
                 "Eliminated", "Cycles w1", "Cycles w32",
                 "Cycle save w32"});
    std::vector<double> eliminated;

    for (const auto &chr : wl.chromosomes) {
        SoftwareRealigner planner{SoftwareRealignerConfig{}};
        auto plan = planner.planContig(wl.reference, chr.contig,
                                       chr.reads);
        uint64_t unpruned = 0, pruned = 0;
        uint64_t cyc_w1_p = 0, cyc_w1_np = 0;
        uint64_t cyc_w32_p = 0, cyc_w32_np = 0;
        for (size_t t = 0; t < plan.targets.size(); ++t) {
            if (plan.readsPerTarget[t].empty())
                continue;
            MarshalledTarget m = marshalTarget(buildTargetInput(
                wl.reference, chr.reads, plan.targets[t],
                plan.readsPerTarget[t]));
            IrComputeResult np1 = irCompute(m, 1, false);
            IrComputeResult p1 = irCompute(m, 1, true);
            IrComputeResult np32 = irCompute(m, 32, false);
            IrComputeResult p32 = irCompute(m, 32, true);
            unpruned += np1.whd.comparisons;
            pruned += p1.whd.comparisons;
            cyc_w1_np += np1.hdcCycles;
            cyc_w1_p += p1.hdcCycles;
            cyc_w32_np += np32.hdcCycles;
            cyc_w32_p += p32.hdcCycles;
        }
        double frac = 1.0 - static_cast<double>(pruned) /
                            static_cast<double>(unpruned);
        eliminated.push_back(frac);
        double save32 = 1.0 - static_cast<double>(cyc_w32_p) /
                              static_cast<double>(cyc_w32_np);
        table.addRow({"Ch" + std::to_string(chr.number),
                      std::to_string(unpruned),
                      std::to_string(pruned), Table::pct(frac),
                      std::to_string(cyc_w1_p),
                      std::to_string(cyc_w32_p),
                      Table::pct(save32)});

        // Per-chromosome counters for the perf gate: every one is
        // an exact function of the simulated workload, so the gate
        // holds them to the committed baseline bit-for-bit.
        std::string key = "ch" + std::to_string(chr.number) + ".";
        report.addValue(key + "unprunedComparisons",
                        static_cast<double>(unpruned));
        report.addValue(key + "prunedComparisons",
                        static_cast<double>(pruned));
        report.addValue(key + "cyclesW1Unpruned",
                        static_cast<double>(cyc_w1_np));
        report.addValue(key + "cyclesW1Pruned",
                        static_cast<double>(cyc_w1_p));
        report.addValue(key + "cyclesW32Unpruned",
                        static_cast<double>(cyc_w32_np));
        report.addValue(key + "cyclesW32Pruned",
                        static_cast<double>(cyc_w32_p));
    }
    // Summed in chromosome order, as the committed baseline was.
    const double mean =
        std::accumulate(eliminated.begin(), eliminated.end(), 0.0) /
        static_cast<double>(eliminated.size());
    table.addRow({"AVG", "-", "-", Table::pct(mean), "-", "-", "-"});
    table.print();

    std::printf("\nPaper: pruning eliminates >50%% of computations "
                "for a small register and\ncompare; results are "
                "bit-identical (verified by the test suite).\n");

    report.addValue("eliminatedFractionMean", mean);
    report.addTable("perChromosome", table);
    report.writeOutput();
    return 0;
}
