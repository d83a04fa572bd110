/**
 * @file
 * Shared helpers for the benchmark harness.  Every bench binary
 * regenerates one table or figure of the paper and prints the same
 * rows/series the paper reports.
 *
 * Scale: chromosome lengths are GRCh37 divided by IRACC_SCALE
 * (default 2000) so a whole-genome run finishes in minutes.  All
 * paper comparisons are ratios, which scaling preserves.  Set the
 * environment variable IRACC_SCALE to trade fidelity for runtime,
 * and IRACC_CHROMOSOMES (e.g. "20,21,22") to restrict the set.
 */

#ifndef IRACC_BENCH_BENCH_COMMON_HH
#define IRACC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "obs/bench_report.hh"
#include "util/logging.hh"

namespace iracc {
namespace bench {

/** Scale divisor from IRACC_SCALE (default 1000). */
inline int64_t
scaleDivisor()
{
    const char *env = std::getenv("IRACC_SCALE");
    if (!env)
        return 1000;
    int64_t v = std::atoll(env);
    fatal_if(v <= 0, "IRACC_SCALE must be positive");
    return v;
}

/** Chromosome set from IRACC_CHROMOSOMES (default: all 22). */
inline std::vector<int>
chromosomeSet()
{
    const char *env = std::getenv("IRACC_CHROMOSOMES");
    std::vector<int> out;
    if (!env)
        return out; // empty = all
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
    }
    return out;
}

/** The standard bench workload (NA12878-substitute). */
inline WorkloadParams
standardWorkload()
{
    WorkloadParams params;
    params.scaleDivisor = scaleDivisor();
    params.chromosomes = chromosomeSet();
    params.coverage = 18.0;
    return params;
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *paper_ref)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("IRACC bench: %s\n", experiment);
    std::printf("Reproduces:  %s\n", paper_ref);
    std::printf("Scale:       GRCh37 / %lld (set IRACC_SCALE to "
                "change)\n",
                static_cast<long long>(scaleDivisor()));
    std::printf("==============================================="
                "=================\n\n");
}

/**
 * Start a machine-readable report for this run, pre-filled with
 * the bench identity and the scale/chromosome knobs (see
 * obs/bench_report.hh for the schema).  The output path
 * (`--json <path>` or IRACC_BENCH_JSON) is resolved and checked
 * here, before the bench does its work; `report.writeOutput()` at
 * the end of main writes it.
 */
inline obs::BenchReport
makeReport(int argc, char **argv, const char *experiment,
           const char *paper_ref)
{
    obs::BenchReport rep(experiment, paper_ref);
    rep.setScale(scaleDivisor());
    rep.setChromosomes(chromosomeSet());
    rep.setOutputPath(obs::BenchReport::jsonPathFromArgs(argc, argv));
    return rep;
}

} // namespace bench
} // namespace iracc

#endif // IRACC_BENCH_BENCH_COMMON_HH
