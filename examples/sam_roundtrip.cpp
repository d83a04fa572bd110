/**
 * @file
 * File-based workflow: generate a data set, persist it as
 * FASTA/FASTQ/SAM-lite, reload it, and realign -- the shape of a
 * real deployment where the sequencer output and alignments live
 * on disk between pipeline stages (as GATK3's file-based flow
 * does).  The realignment leg runs twice through the file pass
 * (core/file_pass.hh): once in memory and once through the
 * bounded-memory streaming path, and the two outputs are verified
 * byte-identical.
 *
 *   $ ./build/examples/sam_roundtrip [output_dir=/tmp]
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/file_pass.hh"
#include "core/realign_job.hh"
#include "core/workload.hh"
#include "genomics/io.hh"
#include "util/logging.hh"

using namespace iracc;

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string dir = argc > 1 ? argv[1] : "/tmp";

    // Synthesize a small sample.
    WorkloadParams params;
    params.chromosomes = {22};
    params.scaleDivisor = 4000;
    params.minContigLength = 25000;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(22);

    const std::string fasta = dir + "/iracc_ref.fa";
    const std::string fastq = dir + "/iracc_reads.fq";
    const std::string sam_in = dir + "/iracc_aligned.samlite";
    const std::string sam_out = dir + "/iracc_realigned.samlite";

    // Persist reference, raw reads, and alignments.
    {
        std::ofstream f(fasta);
        writeFasta(f, wl.reference);
    }
    {
        std::ofstream f(fastq);
        writeFastq(f, chr.reads);
    }
    {
        std::ofstream f(sam_in);
        writeSamLite(f, wl.reference, chr.reads);
    }
    std::printf("wrote %s (%zu contigs), %s and %s (%zu reads)\n",
                fasta.c_str(), wl.reference.numContigs(),
                fastq.c_str(), sam_in.c_str(), chr.reads.size());

    // Reload from disk -- a fresh process would start here -- and
    // realign on the simulated accelerator through the file pass
    // (core/file_pass.hh), twice: once loading every read first,
    // and once streamed, where reads are pulled off the SAM-lite
    // file one contig batch at a time and realigned groups are
    // appended to the output as they finish, so peak memory stays
    // bounded by the largest contig regardless of file size.  The
    // contract is byte-identity of the two outputs -- checked right
    // here.
    RealignSession session = makeSession("iracc");
    auto realign = [&](const std::string &out, bool stream) {
        FilePassResult pass = runFilePass(session, fasta, sam_in, out,
                                          stream, session.config());
        fatal_if(!pass.error.empty(), "%s", pass.error.c_str());
        fatal_if(!pass.parseError.ok(), "ingest failed: %s",
                 pass.parseError.describe().c_str());
        fatal_if(pass.reads != chr.reads.size(),
                 "round-trip lost reads");
        return pass;
    };

    FilePassResult run = realign(sam_out, false);
    std::printf("reloaded %llu reads from disk\n"
                "realigned %llu of %llu considered reads across "
                "%llu targets\nwrote %s\n",
                static_cast<unsigned long long>(run.reads),
                static_cast<unsigned long long>(
                    run.job.stats.readsRealigned),
                static_cast<unsigned long long>(
                    run.job.stats.readsConsidered),
                static_cast<unsigned long long>(run.job.stats.targets),
                sam_out.c_str());

    const std::string sam_stream = dir + "/iracc_streamed.samlite";
    FilePassResult sr = realign(sam_stream, true);
    auto slurp = [](const std::string &path) {
        std::ifstream f(path);
        std::ostringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    fatal_if(slurp(sam_out) != slurp(sam_stream),
             "streamed output diverged from in-memory output");
    std::printf("streamed %llu reads in %llu batches; %s is "
                "byte-identical to %s\n",
                static_cast<unsigned long long>(sr.reads),
                static_cast<unsigned long long>(sr.batches),
                sam_stream.c_str(), sam_out.c_str());
    return 0;
}
