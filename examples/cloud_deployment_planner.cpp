/**
 * @file
 * Cloud deployment planner -- the paper's FPGAs-as-a-service cost
 * analysis (Sections I and V-B) turned into a tool.
 *
 * Given a sequencing workload (genomes per day), the planner sizes
 * and prices three deployment options on AWS EC2 -- GATK3 software
 * on r3.2xlarge, optimized (ADAM-style) software on r3.2xlarge,
 * and the accelerated IR system on f1.2xlarge -- by measuring each
 * backend on the scaled workload and extrapolating to full-genome
 * runtimes.  It reports instances needed, dollars per genome, and
 * dollars per day, and answers the paper's GPU question: the
 * break-even speedup a $3.06/hr GPU instance would need.
 *
 *   $ ./build/examples/cloud_deployment_planner [genomes_per_day=10]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "host/machine_config.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    double genomes_per_day = argc > 1 ? std::atof(argv[1]) : 10.0;
    fatal_if(genomes_per_day <= 0, "genomes/day must be positive");

    std::printf("Cloud deployment planner: INDEL realignment for "
                "%.0f genomes/day\n\n", genomes_per_day);

    // Measure each backend on a scaled chromosome sample and
    // extrapolate: full-genome runtime = scaled runtime x scale
    // (the workload is linear in base pairs).
    const int64_t scale = 1000;
    WorkloadParams params;
    params.scaleDivisor = scale;
    params.chromosomes = {2, 11, 20}; // large, medium, small
    GenomeWorkload wl = buildWorkload(params);

    double genome_bp = 0.0, sample_bp = 0.0;
    for (int n = 1; n <= kNumAutosomes; ++n)
        genome_bp += static_cast<double>(grch37AutosomeLength(n));
    for (const auto &chr : wl.chromosomes)
        sample_bp += static_cast<double>(
            wl.reference.contig(chr.contig).length());

    struct Option
    {
        const char *backend;
        const InstanceType &instance;
    };
    const Option options[] = {
        {"gatk3", r3_2xlarge()},
        {"adam", r3_2xlarge()},
        {"iracc", f1_2xlarge()},
    };

    Table table({"System", "Instance", "h/genome", "$/genome",
                 "Instances needed", "$/day"});
    double cost_per_genome[3] = {0, 0, 0};
    int idx = 0;
    for (const Option &opt : options) {
        RealignSession session = makeSession(opt.backend);
        std::vector<Read> reads = wl.allReads();
        double sample_seconds =
            machineBoundSeconds(session.run(wl.reference, reads));
        // Extrapolate: sample bp -> whole genome, then x scale.
        double genome_seconds = sample_seconds *
            (genome_bp / static_cast<double>(scale)) / sample_bp;
        double hours = genome_seconds / 3600.0;
        double dollars = runCostUsd(genome_seconds, opt.instance);
        cost_per_genome[idx++] = dollars;
        double instances =
            std::ceil(genomes_per_day * genome_seconds / 86400.0);
        table.addRow({opt.backend, opt.instance.name,
                      Table::num(hours, 2),
                      "$" + Table::num(dollars, 2),
                      Table::num(instances, 0),
                      "$" + Table::num(dollars * genomes_per_day,
                                       2)});
    }
    table.print();

    std::printf("\nPaper reference points: GATK3 42h/$28, ADAM "
                "$14.50, IR ACC ~31 min/$0.90 per\ngenome; IRACC "
                "32x more cost-efficient than GATK3, 17x more than "
                "ADAM.\n");
    std::printf("Measured cost efficiency: %.0fx vs GATK3, %.0fx "
                "vs ADAM.\n",
                cost_per_genome[0] / cost_per_genome[2],
                cost_per_genome[1] / cost_per_genome[2]);

    // The Section V-B GPU question.
    double gatk3_genome_hours = cost_per_genome[0] /
                                r3_2xlarge().hourlyUsd;
    double breakeven = gatk3_genome_hours * p3_2xlarge().hourlyUsd /
                       cost_per_genome[2];
    std::printf("\nGPU break-even (Section V-B): a %s instance "
                "($%.2f/hr) must beat GATK3 by\n%.0fx to match "
                "IRACC's cost -- published GPU genomics kernels "
                "reach 1.4-14.6x.\n",
                p3_2xlarge().name.c_str(), p3_2xlarge().hourlyUsd,
                breakeven);
    return 0;
}
