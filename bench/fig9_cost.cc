/**
 * @file
 * Reproduces Figure 9 (right) + Table II: dollar cost of running
 * INDEL realignment for chromosomes 1-22 on GATK3 (r3.2xlarge),
 * ADAM (r3.2xlarge), and the accelerated IR system (f1.2xlarge).
 *
 * Paper: GATK3 $28 (42+ hours), ADAM $14.50, IR ACC <$0.90 (~31
 * minutes).  Amazon prices instances proportionally to TCO, so
 * dollar cost is the objective cost metric (Section V-B).
 *
 * Because the workload is scaled by IRACC_SCALE, this bench prints
 * both the measured scaled cost and the cost extrapolated back to
 * the full-genome workload (multiplying runtime by the scale).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "host/machine_config.hh"
#include "util/table.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    bench::banner("fig9_cost",
                  "Figure 9 (right) + Table II -- cost to perform "
                  "INDEL realignment, Ch1-Ch22");
    obs::BenchReport report = bench::makeReport(
        argc, argv, "fig9_cost",
        "Figure 9 (right) + Table II -- realignment dollar cost");

    // Table II.
    Table machines({"Instance", "Processor", "C/T", "GHz", "Mem",
                    "FPGA", "$/hr"});
    for (const InstanceType *m : {&f1_2xlarge(), &r3_2xlarge()}) {
        machines.addRow(
            {m->name, m->processor,
             std::to_string(m->cores) + "C/" +
                 std::to_string(m->threads) + "T",
             Table::num(m->cpuGhz, 1),
             Table::num(m->memoryGiB, 0) + " GiB",
             m->hasFpga ? "VU9P + 64GB DDR4" : "-",
             Table::num(m->hourlyUsd, 3)});
    }
    std::printf("Table II -- machine configurations:\n");
    machines.print();
    std::printf("\n");

    GenomeWorkload wl = buildWorkload(bench::standardWorkload());
    const double scale =
        static_cast<double>(bench::scaleDivisor());

    struct Row
    {
        const char *label;
        const char *backend;
        const InstanceType &instance;
    };
    const Row rows[] = {
        {"GATK3", "gatk3", r3_2xlarge()},
        {"ADAM", "adam", r3_2xlarge()},
        {"IRACC", "iracc", f1_2xlarge()},
    };

    Table cost({"System", "Instance", "Runtime(s,scaled)",
                "Extrapolated", "Cost(scaled)", "Cost(full)"});
    double costs[3] = {0, 0, 0};
    int idx = 0;
    for (const Row &row : rows) {
        RealignSession session = makeSession(row.backend);
        std::vector<Read> reads;
        for (const auto &chr : wl.chromosomes) {
            reads.insert(reads.end(), chr.reads.begin(),
                         chr.reads.end());
        }
        double seconds =
            session.run(wl.reference, reads).seconds;
        double full_seconds = seconds * scale;
        double full_cost = runCostUsd(full_seconds, row.instance);
        costs[idx++] = full_cost;
        double hours = full_seconds / 3600.0;
        cost.addRow({row.label, row.instance.name,
                     Table::num(seconds, 2),
                     Table::num(hours, 1) + " h",
                     "$" + Table::num(
                               runCostUsd(seconds, row.instance), 4),
                     "$" + Table::num(full_cost, 2)});
    }
    std::printf("Figure 9 (right) -- cost to perform INDEL "
                "realignment:\n");
    cost.print();

    std::printf("\nPaper: GATK3 $28 (42h), ADAM $14.50, IR ACC "
                "$0.90 (31.5 min).\n");
    std::printf("Cost efficiency: IRACC is %.0fx cheaper than GATK3 "
                "(paper: 32x) and %.0fx cheaper than\nADAM (paper: "
                "17x).\n",
                costs[0] / costs[2], costs[1] / costs[2]);

    report.addValue("gatk3FullCostUsd", costs[0]);
    report.addValue("adamFullCostUsd", costs[1]);
    report.addValue("iraccFullCostUsd", costs[2]);
    report.addValue("costRatioVsGatk3", costs[0] / costs[2]);
    report.addValue("costRatioVsAdam", costs[1] / costs[2]);
    report.addTable("machines", machines);
    report.addTable("cost", cost);
    report.writeOutput();
    return 0;
}
