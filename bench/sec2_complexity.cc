/**
 * @file
 * Reproduces the Section II-C compute analysis: the worst-case
 * comparison count of Algorithm 1 (O(CR(m-n+1)n), 3.68 billion
 * comparisons for one maximal target), the per-chromosome target
 * counts (paper: >48,000 for Ch21, >320,000 for Ch2 -- scaled
 * here), and the measured comparison workload of the synthesized
 * data set.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/workload.hh"
#include "realign/limits.hh"
#include "core/realign_job.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("sec2_complexity",
                  "Section II-C -- IR compute requirements");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "sec2_complexity",
        "Section II-C -- IR compute requirements");

    // Worst-case formula with the paper's operand sizes.
    const uint64_t c = kMaxConsensuses, r = kMaxReads;
    const uint64_t m = kMaxConsensusLen, n = 250;
    uint64_t worst = c * r * (m - n + 1) * n;
    std::printf("Worst case per target: C=%llu, R=%llu, m=%llu, "
                "n=%llu\n  C*R*(m-n+1)*n = %llu comparisons "
                "(paper: 3,684,352,000)\n\n",
                static_cast<unsigned long long>(c),
                static_cast<unsigned long long>(r),
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(worst));

    GenomeWorkload wl = buildWorkload(bench::standardWorkload());

    Table table({"Chrom", "Targets", "Reads", "WorstCaseCmp",
                 "ActualCmp(unpruned)"});
    SoftwareRealignerConfig cfg;
    cfg.prune = false;
    const RealignSession session(
        makeSoftwareBackend("gatk3-1t", "unpruned software", cfg));

    uint64_t total_targets = 0;
    for (const auto &chr : wl.chromosomes) {
        ContigPlan plan =
            planStage(wl.reference, chr.contig, chr.reads);
        uint64_t worst_case = 0;
        for (size_t t = 0; t < plan.targets.size(); ++t) {
            if (plan.readsPerTarget[t].empty())
                continue;
            IrTargetInput input = buildTargetInput(
                wl.reference, chr.reads, plan.targets[t],
                plan.readsPerTarget[t]);
            worst_case += input.worstCaseComparisons();
        }
        std::vector<Read> reads = chr.reads;
        RealignStats stats =
            session.runContig(wl.reference, chr.contig, reads).stats;
        total_targets += stats.targets;
        table.addRow({"Ch" + std::to_string(chr.number),
                      std::to_string(stats.targets),
                      std::to_string(chr.reads.size()),
                      std::to_string(worst_case),
                      std::to_string(stats.whd.comparisons)});
    }
    table.print();

    std::printf("\nTotal targets (scaled genome): %llu\n",
                static_cast<unsigned long long>(total_targets));
    std::printf("Paper (full genome): Ch21 has >48,000 targets, "
                "Ch2 >320,000; at 1/%lld scale the\nproportional "
                "counts are ~%lld and ~%lld.\n",
                static_cast<long long>(bench::scaleDivisor()),
                48000ll / bench::scaleDivisor() + 1,
                320000ll / bench::scaleDivisor() + 1);

    report.addValue("worstCaseComparisons",
                    static_cast<double>(worst));
    report.addValue("totalTargets",
                    static_cast<double>(total_targets));
    report.addTable("perChromosome", table);
    report.writeOutput();
    return 0;
}
