/**
 * @file
 * The end-to-end benchmark binary.  Two modes, run as separate
 * processes by run.py so that input synthesis never inflates the
 * measured process's memory high-water mark:
 *
 *   iracc_perfbench synth --workload W --seed N --dir D [--tiny 1]
 *       synthesize W's input files into D and run the oracle (the
 *       unpruned single-thread software point of the differential
 *       matrix) on each dataset, writing D/oracle.txt
 *
 *   iracc_perfbench run --workload W --seed N --seconds S --trace T
 *                       --dir D --ledger L [--trace-out F]
 *                       [--tiny 1] [--corrupt 1]
 *       measure W on D's files; the last stdout line is the JSON
 *       result
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "genomics/io.hh"
#include "genomics/karyotype.hh"
#include "genomics/mutator.hh"
#include "genomics/read_simulator.hh"
#include "util/argparse.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace perfbench;

namespace {

const char *const kWorkloads[] = {"wgs_file", "wgs_api_sw",
                                  "server_tenants"};

/** Chromosome length divisor vs. GRCh37 of every dataset. */
constexpr int64_t kScaleDivisor = 4000;

/** Seed of the donor genome every dataset is sequenced from. */
constexpr uint64_t kDonorSeed = 0xADA12878;

/** One input dataset of a workload. */
struct DatasetSpec
{
    std::string name;
    std::vector<int> chromosomes; ///< empty = all 22 autosomes
    uint64_t seedOffset;
};

std::vector<DatasetSpec>
datasetsOf(const Options &opt)
{
    if (opt.workload != "server_tenants") {
        if (opt.tiny)
            return {{"genome", {20, 21, 22}, 0}};
        return {{"genome", {}, 0}};
    }
    // Several independently drawn variants of each dataset, which
    // the tenants rotate through: one small dataset's handful of
    // targets would make a run's latencies hinge on the seed.
    const std::vector<int> small =
        opt.tiny ? std::vector<int>{22} : std::vector<int>{21, 22};
    const std::vector<int> large = opt.tiny
                                       ? std::vector<int>{21, 22}
                                       : std::vector<int>{19, 20, 21, 22};
    std::vector<DatasetSpec> out;
    for (uint64_t v = 0; v < kSmallVariants; ++v)
        out.push_back({"small" + std::to_string(v), small, v});
    for (uint64_t v = 0; v < kLargeVariants; ++v)
        out.push_back({"large" + std::to_string(v), large, 100 + v});
    return out;
}

/** Append chromosome @p sc of @p ds: its donor and one sequencing run. */
void
addChromosome(const Options &opt, const DatasetSpec &ds,
              const iracc::ScaledContig &sc, ReferenceGenome &ref,
              std::vector<Read> &reads)
{
    const uint64_t perChromosome =
        0x9E3779B97F4A7C15ull * static_cast<uint64_t>(sc.number);
    iracc::Rng donor((kDonorSeed + ds.seedOffset) ^ perChromosome);
    const int32_t contig = ref.addContig(
        sc.name, ReferenceGenome::randomSequence(sc.length, donor));
    const std::vector<iracc::Variant> truth = iracc::generateVariants(
        ref.contig(contig).seq, contig, iracc::VariantGenParams{}, donor);
    iracc::ReadSimParams sim;
    sim.coverage = opt.tiny ? 10.0 : 30.0;
    iracc::ReadSimulator sequencer(
        sim, (opt.seed * 1000003ull + ds.seedOffset) ^ perChromosome);
    iracc::SimulatedReads run = sequencer.simulateContig(ref, contig, truth);
    reads.insert(reads.end(), run.reads.begin(), run.reads.end());
}

/**
 * Build one dataset the way buildWorkload does, except that the donor
 * -- reference sequence and truth variants -- is fixed per dataset and
 * only the sequencing run (read positions, errors, misalignment
 * artifacts) is drawn from the seed.  One donor resequenced, as the
 * paper realigns NA12878: with a fresh donor per seed, the WHD work
 * of a pass moved by over a quarter from seed to seed.
 */
void
buildDataset(const Options &opt, const DatasetSpec &ds, ReferenceGenome &ref,
             std::vector<Read> &reads)
{
    const std::vector<iracc::ScaledContig> karyotype =
        iracc::scaledKaryotype(opt.tiny ? 20000 : kScaleDivisor);
    std::vector<int> numbers = ds.chromosomes;
    if (numbers.empty()) {
        for (int n = 1; n <= iracc::kNumAutosomes; ++n)
            numbers.push_back(n);
    }
    for (int n : numbers)
        addChromosome(opt, ds, karyotype[static_cast<size_t>(n - 1)], ref,
                      reads);
}

/** Build one dataset, write it, and run the oracle on the files. */
void
synthesize(const Options &opt, const DatasetSpec &ds, std::ostream &oracle)
{
    const std::string fa = opt.dir + "/" + ds.name + ".fa";
    const std::string sam = opt.dir + "/" + ds.name + ".samlite";
    {
        ReferenceGenome synthRef;
        std::vector<Read> synthReads;
        buildDataset(opt, ds, synthRef, synthReads);
        std::ofstream fo(fa);
        iracc::writeFasta(fo, synthRef);
        std::ofstream so(sam);
        iracc::writeSamLite(so, synthRef, synthReads);
        if (!fo || !so)
            throw std::runtime_error("cannot write inputs to " + opt.dir);
    }

    // The oracle sees exactly what the measured program sees: the
    // parsed files, not the in-memory synthesis.
    ReferenceGenome ref = loadFasta(fa);
    std::vector<Read> reads = loadSamLite(sam, ref);
    const iracc::BackendVariant point =
        iracc::differentialVariants({1}).front();
    iracc::RealignJobConfig cfg;
    cfg.threads = point.jobThreads;
    iracc::RealignSession oracleSession(iracc::makeVariantBackend(point),
                                        cfg);
    const iracc::RealignJobResult job = oracleSession.run(ref, reads);
    char line[200];
    std::snprintf(line, sizeof(line), "%s %016llx %llu %llu %zu\n",
                  ds.name.c_str(), static_cast<unsigned long long>(
                               digestReads(ref, reads)),
                  static_cast<unsigned long long>(job.stats.targets),
                  static_cast<unsigned long long>(job.stats.readsRealigned),
                  reads.size());
    oracle << line;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "iracc_perfbench: %s\n"
                 "usage: iracc_perfbench synth|run --workload W --seed N "
                 "--dir D [--seconds S] [--trace 0|1] [--ledger L] "
                 "[--trace-out F] [--tiny 0|1] [--corrupt 0|1]\n",
                 msg);
    std::exit(2);
}

bool
parseFlag(const std::string &v)
{
    if (v != "0" && v != "1")
        usage("boolean flags take 0 or 1");
    return v == "1";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    const std::string mode = argv[1];
    if (mode != "synth" && mode != "run")
        usage("mode must be synth or run");

    Options opt;
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("every option takes a value");
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        double d = 0.0;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            if (!iracc::parseUint64(val, &opt.seed))
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            if (!iracc::parseDouble(val, &d) || !(d > 0.0) || d > 3600.0)
                usage("--seconds takes a number in (0, 3600]");
            opt.seconds = d;
        } else if (key == "--trace") {
            opt.trace = parseFlag(val);
        } else if (key == "--dir") {
            opt.dir = val;
        } else if (key == "--ledger") {
            opt.ledgerDir = val;
        } else if (key == "--trace-out") {
            opt.traceOut = val;
        } else if (key == "--tiny") {
            opt.tiny = parseFlag(val);
        } else if (key == "--corrupt") {
            opt.corrupt = parseFlag(val);
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || opt.workload == w;
    if (!known)
        usage("--workload must be wgs_file, wgs_api_sw or server_tenants");
    if (opt.dir.empty())
        usage("--dir is required");
    if (mode == "run" && opt.ledgerDir.empty())
        usage("--ledger is required");

    iracc::setQuiet(true);
    try {
        if (mode == "synth") {
            std::ofstream oracle(opt.dir + "/oracle.txt");
            for (const DatasetSpec &ds : datasetsOf(opt))
                synthesize(opt, ds, oracle);
            if (!oracle)
                throw std::runtime_error("cannot write oracle.txt");
            return 0;
        }
        Report rep;
        if (opt.workload == "server_tenants")
            runServerTenants(opt, rep);
        else
            runInProcess(opt, rep);
        rep.print(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "iracc_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
