/**
 * @file
 * Reproduces Figure 3: the fraction of alignment-refinement
 * pipeline execution time spent in INDEL realignment, per
 * chromosome (paper: 53-67 %, average 58 % on GATK3), running the
 * full refinement pipeline (sort, duplicate marking, IR, BQSR)
 * with the GATK3-style software realigner.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "refine/pipeline.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("fig3_ir_fraction",
                  "Figure 3 -- IR share of the alignment-refinement "
                  "pipeline, per chromosome");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "fig3_ir_fraction",
        "Figure 3 -- IR share of refinement, per chromosome");

    GenomeWorkload wl = buildWorkload(bench::standardWorkload());

    // Per-chromosome IR through the staged job engine: each call
    // is a one-contig RealignJob over the gatk3 backend.
    RealignSession gatk3 = makeSession("gatk3");
    RealignStage gatk3_stage = [&](const ReferenceGenome &ref,
                                   int32_t contig,
                                   std::vector<Read> &reads) {
        return gatk3.runContig(ref, contig, reads).stats;
    };

    Table table({"Chrom", "Sort(s)", "DupMark(s)", "IR(s)",
                 "BQSR(s)", "IR fraction"});
    std::vector<double> fractions;

    for (const auto &chr : wl.chromosomes) {
        std::vector<Read> reads = chr.reads;
        RefineResult res = runRefinementPipeline(
            wl.reference, chr.contig, reads, gatk3_stage,
            chr.truth);
        fractions.push_back(res.times.irFraction());
        table.addRow({"Ch" + std::to_string(chr.number),
                      Table::num(res.times.sortSeconds, 3),
                      Table::num(res.times.dupMarkSeconds, 3),
                      Table::num(res.times.realignSeconds, 3),
                      Table::num(res.times.bqsrSeconds, 3),
                      Table::pct(res.times.irFraction())});
    }
    const double mean =
        std::accumulate(fractions.begin(), fractions.end(), 0.0) /
        static_cast<double>(fractions.size());
    const auto [lo, hi] =
        std::minmax_element(fractions.begin(), fractions.end());
    table.addRow({"AVG", "-", "-", "-", "-", Table::pct(mean)});
    table.print();

    std::printf("\nPaper: IR consumes 53-67%% of refinement per "
                "chromosome, 58%% on average.\n"
                "Measured range: %s - %s\n",
                Table::pct(*lo).c_str(), Table::pct(*hi).c_str());

    report.addValue("irFractionMean", mean);
    report.addValue("irFractionMin", *lo);
    report.addValue("irFractionMax", *hi);
    report.addTable("perChromosome", table);
    report.writeOutput();
    return 0;
}
