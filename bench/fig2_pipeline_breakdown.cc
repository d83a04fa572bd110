/**
 * @file
 * Reproduces Figure 2: execution-time breakdown of the three
 * genomic-analysis pipelines -- primary alignment (BWA-MEM
 * stand-in), alignment refinement (GATK3-style stages), and
 * variant calling (Mutect1-style somatic caller) -- including the
 * primary pipeline's internal stage shares (SMEM generation,
 * suffix-array lookup, Smith-Waterman seed extension, output).
 *
 * Every number printed here is read back from the host
 * MetricsRegistry the libraries sample into (the
 * `align.stage.*` / `refine.stage.*` / `variant.call_ns`
 * histograms), so this bench, `--metrics` exports and trace spans
 * all report from one source of truth.
 *
 * Paper shape to reproduce: refinement is the slowest pipeline
 * (~60 % of total, ~4x the primary pipeline); Smith-Waterman is
 * only ~5 % of the total and suffix-array lookup ~1.5 %, which is
 * the argument for accelerating IR instead of primary alignment.
 */

#include <cstdio>

#include "align/aligner.hh"
#include "bench_common.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "obs/obs.hh"
#include "refine/pipeline.hh"
#include "util/table.hh"
#include "variant/caller.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("fig2_pipeline_breakdown",
                  "Figure 2 -- genomic analysis execution time "
                  "breakdown (three pipelines)");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "fig2_pipeline_breakdown",
        "Figure 2 -- genomic analysis execution time breakdown");

    // The one source of truth: every pipeline below records its
    // stage nanoseconds into this registry, and every number
    // printed is read back out of it.
    obs::MetricsRegistry reg;
    obs::Observability ob;
    ob.metrics = &reg;
    report.setMetrics(&reg);

    // A subset of chromosomes keeps the full three-pipeline run
    // tractable; the breakdown is a ratio, so the subset preserves
    // it.
    WorkloadParams params = bench::standardWorkload();
    if (params.chromosomes.empty())
        params.chromosomes = {19, 20, 21, 22};
    GenomeWorkload wl = buildWorkload(params);

    // ---- Pipeline 1: primary alignment ---------------------------
    ReadAligner aligner(wl.reference);
    aligner.setObservability(&ob);
    for (const auto &chr : wl.chromosomes) {
        // Strip the simulator's alignments; the aligner rebuilds
        // them from scratch, exactly the primary pipeline's job.
        std::vector<Read> raw = chr.reads;
        for (Read &r : raw) {
            r.pos = 0;
            r.cigar = Cigar();
        }
        aligner.alignAll(raw);
    }

    // ---- Pipeline 2: alignment refinement ------------------------
    // One genome-wide refinement pass; the IR stage is a gatk3
    // RealignSession driven through the staged job engine.
    RealignJobConfig job_cfg;
    job_cfg.obs = &ob;
    RealignSession gatk3 =
        RealignSession(makeBackend("gatk3"), job_cfg);
    GenomeRealignStage gatk3_stage =
        [&](const ReferenceGenome &ref, std::vector<Read> &reads) {
            return gatk3.run(ref, reads).stats;
        };

    std::vector<Read> refined;
    std::vector<Variant> known;
    for (const auto &chr : wl.chromosomes) {
        refined.insert(refined.end(), chr.reads.begin(),
                       chr.reads.end());
        known.insert(known.end(), chr.truth.begin(),
                     chr.truth.end());
    }
    runRefinementPipeline(wl.reference, refined, gatk3_stage, known,
                          &ob);

    // ---- Pipeline 3: variant calling -----------------------------
    for (const auto &chr : wl.chromosomes) {
        callVariants(wl.reference, refined, chr.contig, 0,
                     wl.reference.contig(chr.contig).length(), {},
                     &ob);
    }

    // ---- Report: everything below reads from the registry --------
    auto seconds = [&reg](const char *name) {
        return 1e-9 *
               static_cast<double>(reg.histogramSnapshot(name).total());
    };
    const double smem = seconds("align.stage.smem_ns");
    const double lookup = seconds("align.stage.lookup_ns");
    const double extend = seconds("align.stage.extend_ns");
    const double out_other = seconds("align.stage.output_ns") +
                             seconds("align.stage.other_ns");
    const double primary = smem + lookup + extend + out_other;

    const double sort = seconds("refine.stage.sort_ns");
    const double dupmark = seconds("refine.stage.dupmark_ns");
    const double realign = seconds("refine.stage.realign_ns");
    const double bqsr = seconds("refine.stage.bqsr_ns");
    const double refinement = sort + dupmark + realign + bqsr;

    const double calling = seconds("variant.call_ns");
    const double total = primary + refinement + calling;

    std::printf("Pipeline totals (%llu reads, %llu aligned, %llu "
                "variants called):\n",
                static_cast<unsigned long long>(
                    reg.counterValue("align.reads.total")),
                static_cast<unsigned long long>(
                    reg.counterValue("align.reads.aligned")),
                static_cast<unsigned long long>(
                    reg.counterValue("variant.calls.snv") +
                    reg.counterValue("variant.calls.indel")));
    Table top({"Pipeline", "Seconds", "Share", "Paper share"});
    top.addRow({"1. Primary alignment", Table::num(primary, 2),
                Table::pct(primary / total), "~15% (~17h)"});
    top.addRow({"2. Alignment refinement",
                Table::num(refinement, 2),
                Table::pct(refinement / total), "~60% (~72h)"});
    top.addRow({"3. Variant calling", Table::num(calling, 2),
                Table::pct(calling / total), "~25% (~36h)"});
    top.print();

    std::printf("\nStage breakdown (share of grand total):\n");
    Table stages({"Stage", "Pipeline", "Seconds", "Share",
                  "Paper"});
    stages.addRow({"SMEM generation", "primary",
                   Table::num(smem, 2), Table::pct(smem / total),
                   "~7%"});
    stages.addRow({"Suffix array lookup", "primary",
                   Table::num(lookup, 2), Table::pct(lookup / total),
                   "~1.5%"});
    stages.addRow({"Seed extension (SW)", "primary",
                   Table::num(extend, 2), Table::pct(extend / total),
                   "~5%"});
    stages.addRow({"Output + other", "primary",
                   Table::num(out_other, 2),
                   Table::pct(out_other / total), "~1.5%"});
    stages.addRow({"Sort", "refinement", Table::num(sort, 2),
                   Table::pct(sort / total), "~4%"});
    stages.addRow({"Duplicate marking", "refinement",
                   Table::num(dupmark, 2),
                   Table::pct(dupmark / total), "~7%"});
    stages.addRow({"INDEL realignment", "refinement",
                   Table::num(realign, 2),
                   Table::pct(realign / total), "~34%"});
    stages.addRow({"BQSR", "refinement", Table::num(bqsr, 2),
                   Table::pct(bqsr / total), "~15%"});
    stages.addRow({"Variant calling", "calling",
                   Table::num(calling, 2),
                   Table::pct(calling / total), "~25%"});
    stages.print();

    std::printf("\nKey shape claims to check: refinement is the "
                "slowest pipeline; INDEL\nrealignment is the "
                "single largest stage (paper: ~34%% of the total); "
                "Smith-\nWaterman and SA lookup are small, which "
                "is why accelerating IR pays more.\n"
                "Note: native C++ sort/dupmark/BQSR are relatively "
                "cheaper than their GATK3\nJava counterparts, so "
                "the non-IR refinement stages under-weigh the "
                "paper's\nshares (see EXPERIMENTS.md).\n");

    report.addValue("primarySeconds", primary);
    report.addValue("refinementSeconds", refinement);
    report.addValue("callingSeconds", calling);
    report.addValue("totalSeconds", total);
    report.addValue("irShare", total > 0 ? realign / total : 0.0);
    report.addTable("pipelines", top);
    report.addTable("stages", stages);
    report.writeOutput();
    return 0;
}
