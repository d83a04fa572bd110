/**
 * @file
 * Machine-readable benchmark output: one stable JSON schema every
 * bench binary emits, so runs accumulate into the performance
 * trajectory (`BENCH_*.json`) the ROADMAP tracks.
 *
 * Schema ("iracc-bench-v1"), validated by tests/obs_test.cc:
 *
 *   {
 *     "schema":      "iracc-bench-v1",
 *     "bench":       "<binary name>",
 *     "paperRef":    "<figure/table reproduced>",
 *     "scale":       <IRACC_SCALE divisor>,
 *     "chromosomes": [<restricted set, empty = all>],
 *     "git":         "<git describe at configure time>",
 *     "wallSeconds": <bench wall clock>,
 *     "values":      { "<key>": <number>, ... },
 *     "tables":      [ { "name": "...", "columns": [...],
 *                        "rows": [[cell, ...], ...] }, ... ],
 *     "metrics":     { ...MetricsRegistry::writeJson()... }   // optional
 *   }
 *
 * The output path comes from `--json <path>` on the bench command
 * line or the IRACC_BENCH_JSON environment variable (flag wins);
 * with neither, nothing is written and the bench behaves exactly
 * as before.  The path is checked when it is set, before the bench
 * does its work: `--json` without an operand is a usage error
 * (exit 2) and an unwritable path is fatal (exit 1).
 */

#ifndef IRACC_OBS_BENCH_REPORT_HH
#define IRACC_OBS_BENCH_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hh"

namespace iracc {

class Table;

namespace obs {

class MetricsRegistry;

/** One exported table: a named copy of a util::Table's cells. */
struct BenchTable
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
};

/** Builder + writer of one bench run's JSON document. */
class BenchReport
{
  public:
    /**
     * @param bench     bench binary name, e.g. "fig3_ir_fraction"
     * @param paper_ref the paper artifact reproduced
     */
    BenchReport(std::string bench, std::string paper_ref);

    void setScale(int64_t scale) { scaleDiv = scale; }
    void
    setChromosomes(std::vector<int> chroms)
    {
        chromosomes = std::move(chroms);
    }

    /** Attach a registry whose snapshot is embedded at write
     *  time (pointer must outlive the report). */
    void setMetrics(const MetricsRegistry *reg) { metrics = reg; }

    /** Record one headline scalar, e.g. {"speedup", 81.3}. */
    void addValue(const std::string &key, double value);

    /** Export a rendered table under @p name. */
    void addTable(const std::string &name, const Table &table);

    /** Write the document; wallSeconds = time since construction. */
    void write(std::ostream &os) const;

    /**
     * Resolve the output path: `--json <path>` beats
     * IRACC_BENCH_JSON beats "" (no output).  A trailing `--json`
     * with no path is a usage error (exit 2).
     */
    static std::string jsonPathFromArgs(int argc, char **argv);

    /**
     * Write to @p path when non-empty, announcing the file on
     * stdout.  @return true when a file was written.
     */
    bool writeToPath(const std::string &path) const;

    /**
     * Set the path writeOutput() targets ("" = no output).  A
     * non-empty path must be writable now (fatal otherwise), so a
     * bad path fails before the work instead of after it.
     */
    void setOutputPath(const std::string &path);

    /** writeToPath(the output path). */
    bool writeOutput() const { return writeToPath(outputPath); }

  private:
    std::string bench;
    std::string paperRef;
    int64_t scaleDiv = 0;
    std::vector<int> chromosomes;
    std::vector<std::pair<std::string, double>> values;
    std::vector<BenchTable> tables;
    const MetricsRegistry *metrics = nullptr;
    std::string outputPath;
    Timer wall;
};

} // namespace obs
} // namespace iracc

#endif // IRACC_OBS_BENCH_REPORT_HH
