/**
 * @file
 * Perf-regression gate runner.  Executes the gated bench suites
 * (kernel_microbench, fig9_speedup, fig7_scheduling,
 * fig8_data_parallel, ablation_pruning, ablation_memsys),
 * collects their iracc-bench-v1 reports, and diffs them against
 * the committed baselines in bench/baselines/ with the
 * noise-aware rules in obs/bench_gate.hh.
 *
 * Workflow:
 *
 *   iracc_bench --check --portable  # CI: fail on regression
 *   iracc_bench --write-baseline    # refresh committed baselines
 *
 * `--portable` is the supported check: without it the machine-bound
 * keys (`rate_*` throughputs, wall seconds) are held to the
 * baseline box's numbers and fail at random on a shared host.
 *
 * `--check` runs kernel_microbench `--repeat N` times (default 3)
 * and gates the per-key median, so one noisy repetition cannot
 * fail the gate on its own; fig9_speedup runs once (its gated
 * values are deterministic counters plus generously-slacked
 * seconds).  `--write-baseline` stores one run's report verbatim:
 * a baseline is real measured output, never a hand-edited file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_gate.hh"

using namespace iracc;

namespace {

struct Suite
{
    /** Bench binary name under --bench-dir. */
    const char *binary;
    /** Baseline file name under --baseline-dir. */
    const char *baseline;
    /** Environment assignments prepended to the command. */
    const char *env;
    /** Extra arguments after --json <path>. */
    const char *extraArgs;
    /** Repetitions honoured in --check mode. */
    bool repeats;
    std::vector<obs::GateRule> rules;
};

std::vector<Suite>
suites()
{
    return {
        // A filter that matches nothing skips the google-benchmark
        // console pass; only the self-timed JSON section runs.
        {"kernel_microbench", "BENCH_kernel.json", "",
         "--benchmark_filter=__gate_only__", true,
         obs::kernelBenchGateRules()},
        // Two smallest chromosomes at coarse scale: the same
        // shape fig9 reports, minutes faster.
        {"fig9_speedup", "BENCH_fig9.json",
         "IRACC_CHROMOSOMES=21,22 IRACC_SCALE=4000 ", "", false,
         obs::fig9GateRules()},
        // Fully deterministic cycle models run once: fig7's
        // self-contained toy (plus the multi-card fleet scaling
        // section, whose 2-card speedup floor is the fleet
        // acceptance bar) and fig8's width sweep at a pinned
        // scale.
        {"fig7_scheduling", "BENCH_fig7.json", "", "", false,
         obs::fig7GateRules()},
        {"fig8_data_parallel", "BENCH_fig8.json",
         "IRACC_SCALE=4000 ", "", false, obs::fig8GateRules()},
        // The ablation benches report deterministic modeled
        // metrics (comparison counts, cycle-exact runtimes), so
        // they gate the same way at a pinned workload: pruning on
        // the two smallest chromosomes, memsys on its built-in
        // chromosome-20 sweep.
        {"ablation_pruning", "BENCH_ablation_pruning.json",
         "IRACC_CHROMOSOMES=21,22 IRACC_SCALE=4000 ", "", false,
         obs::ablationPruningGateRules()},
        {"ablation_memsys", "BENCH_ablation_memsys.json",
         "IRACC_SCALE=4000 ", "", false,
         obs::ablationMemsysGateRules()},
    };
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Runs one bench repetition; fills *values from its report. */
bool
runSuiteOnce(const Suite &suite, const std::string &bench_dir,
             int rep, std::map<std::string, double> *values)
{
    std::string tmp = "/tmp/iracc_bench_" +
                      std::string(suite.binary) + "_" +
                      std::to_string(rep) + ".json";
    std::string cmd = std::string(suite.env) + bench_dir + "/" +
                      suite.binary + " --json " + tmp + " " +
                      suite.extraArgs + " > /dev/null 2>&1";
    std::printf("  run %d: %s/%s ...\n", rep, bench_dir.c_str(),
                suite.binary);
    std::fflush(stdout);
    if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "error: command failed: %s\n",
                     cmd.c_str());
        return false;
    }
    std::string text, error;
    if (!readFile(tmp, &text)) {
        std::fprintf(stderr, "error: bench wrote no report: %s\n",
                     tmp.c_str());
        return false;
    }
    if (!obs::parseBenchValues(text, suite.binary, values, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", tmp.c_str(),
                     error.c_str());
        return false;
    }
    std::remove(tmp.c_str());
    // Keep the raw report of the last repetition for
    // --write-baseline (verbatim, not reconstructed).
    std::ofstream keep("/tmp/iracc_bench_last.json");
    keep << text;
    return true;
}

bool
writeBaseline(const Suite &suite, const std::string &bench_dir,
              const std::string &baseline_dir)
{
    std::map<std::string, double> values;
    if (!runSuiteOnce(suite, bench_dir, 0, &values))
        return false;
    std::string text;
    if (!readFile("/tmp/iracc_bench_last.json", &text))
        return false;
    std::string path = baseline_dir + "/" + suite.baseline;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << text;
    std::printf("  wrote %s (%zu values)\n", path.c_str(),
                values.size());
    return true;
}

bool
checkSuite(const Suite &suite, const std::string &bench_dir,
           const std::string &baseline_dir, int repeat,
           double slack_factor, bool portable)
{
    std::string path = baseline_dir + "/" + suite.baseline;
    std::string text, error;
    if (!readFile(path, &text)) {
        std::fprintf(stderr,
                     "error: no baseline %s (run --write-baseline "
                     "and commit it)\n",
                     path.c_str());
        return false;
    }
    std::map<std::string, double> baseline;
    if (!obs::parseBenchValues(text, suite.binary, &baseline,
                               &error)) {
        std::fprintf(stderr, "error: baseline %s: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }

    int reps = suite.repeats ? repeat : 1;
    std::vector<std::map<std::string, double>> runs;
    for (int rep = 0; rep < reps; ++rep) {
        std::map<std::string, double> values;
        if (!runSuiteOnce(suite, bench_dir, rep, &values))
            return false;
        runs.push_back(std::move(values));
    }

    std::vector<obs::GateRule> rules = suite.rules;
    obs::scaleGateSlack(rules, slack_factor);
    if (portable)
        obs::demoteNonPortable(rules);
    obs::GateResult result =
        obs::checkBenchGate(baseline, runs, rules);

    for (const obs::GateFinding &f : result.findings) {
        const char *mark = !f.gated ? "  --"
                           : f.ok  ? "  ok"
                                   : "FAIL";
        std::printf("  [%s] %-36s %s\n", mark, f.key.c_str(),
                    f.detail.c_str());
    }
    std::printf("  %s: %zu gated, %zu failed\n", suite.binary,
                result.gatedCount(), result.failedCount());
    return result.ok;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: iracc_bench --check | --write-baseline\n"
        "                   [--bench-dir DIR]     bench binaries "
        "(default build/bench)\n"
        "                   [--baseline-dir DIR]  baselines "
        "(default bench/baselines)\n"
        "                   [--repeat N]          repetitions per "
        "noisy suite (default 3)\n"
        "                   [--slack F]           scale relative "
        "slack (default 1.0)\n"
        "                   [--suite NAME]        run one suite "
        "only\n"
        "                   [--portable]          skip "
        "machine-bound metrics; counts\n"
        "                                         and same-run "
        "ratios still gate.  The\n"
        "                                         supported "
        "check, and what CI runs:\n"
        "                                         without it the "
        "rate_* keys fail at\n"
        "                                         random on a "
        "shared host\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool check = false, write = false;
    std::string bench_dir = "build/bench";
    std::string baseline_dir = "bench/baselines";
    std::string only;
    int repeat = 3;
    double slack_factor = 1.0;
    bool portable = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto operand = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--check")
            check = true;
        else if (arg == "--write-baseline")
            write = true;
        else if (arg == "--bench-dir")
            bench_dir = operand();
        else if (arg == "--baseline-dir")
            baseline_dir = operand();
        else if (arg == "--repeat")
            repeat = std::atoi(operand());
        else if (arg == "--slack")
            slack_factor = std::atof(operand());
        else if (arg == "--suite")
            only = operand();
        else if (arg == "--portable")
            portable = true;
        else {
            usage();
            return 2;
        }
    }
    if (check == write || repeat < 1 || slack_factor <= 0.0) {
        usage();
        return 2;
    }

    bool ok = true;
    bool matched = false;
    for (const Suite &suite : suites()) {
        if (!only.empty() && only != suite.binary)
            continue;
        matched = true;
        std::printf("%s %s:\n",
                    write ? "baselining" : "checking",
                    suite.binary);
        ok &= write ? writeBaseline(suite, bench_dir, baseline_dir)
                    : checkSuite(suite, bench_dir, baseline_dir,
                                 repeat, slack_factor, portable);
    }
    if (!matched) {
        std::fprintf(stderr, "error: unknown suite '%s'\n",
                     only.c_str());
        return 2;
    }
    std::printf("%s\n", ok ? (check ? "PERF GATE: PASS"
                                    : "baselines written")
                           : (check ? "PERF GATE: FAIL"
                                    : "baseline write FAILED"));
    return ok ? 0 : 1;
}
