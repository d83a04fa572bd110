/**
 * @file
 * Quickstart: the smallest complete IRACC program.
 *
 * Walks the paper's Figure 4 worked example through the public
 * API -- build a target input, run the WHD kernel (Algorithm 1)
 * and consensus selection (Algorithm 2) in software, then run the
 * exact same bytes through the simulated FPGA datapath and show
 * the results agree -- and finishes by realigning a small
 * synthetic chromosome on the simulated 32-unit accelerator.
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>

#include "accel/ir_compute.hh"
#include "core/realign_job.hh"
#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "realign/score.hh"
#include "realign/whd.hh"
#include "util/logging.hh"

using namespace iracc;

int
main()
{
    setQuiet(true);

    // ------------------------------------------------------------
    // Part 1: the paper's Figure 4 example, by hand.
    // ------------------------------------------------------------
    std::printf("Part 1: Figure 4 worked example\n");
    std::printf("--------------------------------\n");

    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 7;
    input.consensuses = {"CCTTAGA",  // the reference (consensus 0)
                         "ACCTGAA",  // consensus 1
                         "TCTGCCT"}; // consensus 2
    input.events.resize(3);
    input.addRead("TGAA", QualSeq{10, 20, 45, 10});
    input.addRead("CCTC", QualSeq{10, 60, 30, 20});
    input.readIndices = {0, 1};

    // Algorithm 1: the min-WHD grid.
    MinWhdGrid grid = minWhd(input, /*prune=*/true);
    std::printf("min_whd grid (rows = consensuses, cols = "
                "reads):\n");
    for (size_t i = 0; i < grid.numConsensuses(); ++i) {
        for (size_t j = 0; j < grid.numReads(); ++j)
            std::printf("  [%zu,%zu] = %2u (offset %u)", i, j,
                        grid.whd(i, j), grid.idx(i, j));
        std::printf("\n");
    }

    // Algorithm 2: pick the best consensus, decide realignments.
    ConsensusDecision decision = scoreAndSelect(grid);
    std::printf("scores: cons1 = %llu, cons2 = %llu -> picked "
                "consensus %u\n",
                static_cast<unsigned long long>(decision.scores[1]),
                static_cast<unsigned long long>(decision.scores[2]),
                decision.bestConsensus);
    for (size_t j = 0; j < 2; ++j)
        std::printf("read %zu: %s\n", j,
                    decision.realign[j] ? "realigned" : "unchanged");

    // The same bytes through the simulated accelerator datapath.
    MarshalledTarget m = marshalTarget(input);
    IrComputeResult hw = irCompute(m, /*width=*/32, /*prune=*/true);
    std::printf("FPGA datapath model agrees: best consensus %u, "
                "%u read(s) realigned,\n%llu datapath cycles\n\n",
                hw.bestConsensus,
                static_cast<unsigned>(
                    hw.output.realignFlags[0] +
                    hw.output.realignFlags[1]),
                static_cast<unsigned long long>(hw.totalCycles()));

    // ------------------------------------------------------------
    // Part 2: a whole (tiny) chromosome on the accelerated system.
    // ------------------------------------------------------------
    std::printf("Part 2: realigning a synthetic chromosome\n");
    std::printf("------------------------------------------\n");
    WorkloadParams params;
    params.chromosomes = {21};
    params.scaleDivisor = 4000; // ~12 kbp "chromosome 21"
    params.minContigLength = 30000;
    params.coverage = 30.0;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(21);
    std::printf("%s: %lld bp, %zu reads, %zu truth variants\n",
                autosomeName(21).c_str(),
                static_cast<long long>(
                    wl.reference.contig(chr.contig).length()),
                chr.reads.size(), chr.truth.size());

    std::vector<Read> reads = chr.reads;
    RealignSession session = makeSession("iracc");
    RealignJobResult job = session.run(wl.reference, reads);
    std::printf("backend: %s\n",
                session.backend().description().c_str());
    std::printf("targets: %llu, reads realigned: %llu\n",
                static_cast<unsigned long long>(job.stats.targets),
                static_cast<unsigned long long>(
                    job.stats.readsRealigned));
    std::printf("simulated FPGA time: %.3f ms (125 MHz), pruning "
                "eliminated %.0f%% of work\n",
                job.fpgaSeconds * 1e3,
                job.stats.whd.prunedFraction() * 100.0);
    return 0;
}
