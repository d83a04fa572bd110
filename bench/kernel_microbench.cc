/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels: the
 * weighted-Hamming-distance software kernel (per dispatch variant,
 * with and without pruning), the accelerator datapath model at
 * several widths, the Smith-Waterman extension kernel, and target
 * marshalling.  These quantify the per-base-comparison cost that
 * the Section II-C compute-bound argument rests on.
 *
 * With `--json <path>` (or IRACC_BENCH_JSON) the binary also emits
 * an iracc-bench-v1 document with one section per dispatch variant,
 * measured by a self-timed loop independent of google-benchmark.
 * Key prefixes encode the perf-gate policy (tools/iracc_bench):
 *
 *   n_*        deterministic counts/cycles -- must match exactly
 *   rate_*     wall-clock throughput -- gated with relative slack
 *   speedup_*  same-run ratios vs the scalar kernel -- gated with
 *              relative slack plus an absolute floor
 *   wall_*     recorded for the trajectory, never gated
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "accel/ir_compute.hh"
#include "align/smith_waterman.hh"
#include "core/workload.hh"
#include "obs/bench_report.hh"
#include "realign/marshal.hh"
#include "realign/stages.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "util/argparse.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace iracc {
namespace {

/** A realistic mid-size target: 4 consensuses, 48 reads. */
IrTargetInput
benchInput(size_t num_cons = 4, size_t num_reads = 48,
           size_t cons_len = 400, size_t read_len = 100)
{
    Rng rng(0xBE9C);
    IrTargetInput input;
    input.windowStart = 100000;
    input.windowEnd = input.windowStart +
                      static_cast<int64_t>(cons_len);
    BaseSeq ref;
    for (size_t b = 0; b < cons_len; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses.push_back(ref);
    for (size_t i = 1; i < num_cons; ++i) {
        BaseSeq alt = ref;
        alt.erase(cons_len / 2, 1 + i);
        input.consensuses.push_back(alt);
    }
    input.events.resize(input.consensuses.size());
    for (size_t j = 0; j < num_reads; ++j) {
        size_t off = rng.below(cons_len - read_len);
        BaseSeq r = ref.substr(off, read_len);
        for (int e = 0; e < 3; ++e)
            r[rng.below(read_len)] = kConcreteBases[rng.below(4)];
        QualSeq q;
        for (size_t b = 0; b < read_len; ++b)
            q.push_back(static_cast<uint8_t>(rng.range(10, 40)));
        input.readBases.push_back(r);
        input.readQuals.push_back(q);
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    return input;
}

void
BM_CalcWhd(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    const BaseSeq &cons = input.consensuses[0];
    const BaseSeq &read = input.readBases[0];
    const QualSeq &quals = input.readQuals[0];
    size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(calcWhd(cons, read, quals, k));
        k = (k + 1) % (cons.size() - read.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(read.size()));
}
BENCHMARK(BM_CalcWhd);

void
BM_MinWhd(benchmark::State &state, SimdKernel kernel, bool prune)
{
    ScopedSimdKernel scope(kernel);
    IrTargetInput input = benchInput();
    WhdStats stats;
    for (auto _ : state) {
        MinWhdGrid grid = minWhd(input, prune, &stats);
        benchmark::DoNotOptimize(grid);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.comparisons));
    state.SetLabel(prune ? "pruned" : "full");
}

void
BM_IrComputeWidth(benchmark::State &state, SimdKernel kernel)
{
    ScopedSimdKernel scope(kernel);
    MarshalledTarget target = marshalTarget(benchInput());
    const uint32_t width = static_cast<uint32_t>(state.range(0));
    uint64_t cycles = 0;
    for (auto _ : state) {
        IrComputeResult res = irCompute(target, width, true);
        cycles = res.totalCycles();
        benchmark::DoNotOptimize(res);
    }
    state.counters["model_cycles"] = static_cast<double>(cycles);
}

/**
 * Every target of a fixed-seed genome (chr21-22 at scale 1000, 30x),
 * marshalled once.  Its reads come from the simulator, indels and
 * sequencing errors included, so offsets abort in every chunk, not
 * nearly all in the first as with benchInput's three-error reads.
 */
const std::vector<MarshalledTarget> &
genomeTargets()
{
    static const std::vector<MarshalledTarget> targets = [] {
        WorkloadParams params;
        params.seed = 0x6E0E;
        params.chromosomes = {21, 22};
        GenomeWorkload wl = buildWorkload(params);
        std::vector<MarshalledTarget> out;
        for (const ChromosomeWorkload &chr : wl.chromosomes) {
            ContigPlan plan =
                planStage(wl.reference, chr.contig, chr.reads);
            for (size_t t = 0; t < plan.targets.size(); ++t) {
                if (plan.readsPerTarget[t].empty())
                    continue;
                IrTargetInput input = buildTargetInput(
                    wl.reference, chr.reads, plan.targets[t],
                    plan.readsPerTarget[t]);
                if (input.limitViolation().empty())
                    out.push_back(marshalTarget(input));
            }
        }
        return out;
    }();
    return targets;
}

/** irCompute at width 32 over every target of genomeTargets(). */
void
BM_IrComputeGenome(benchmark::State &state, SimdKernel kernel)
{
    ScopedSimdKernel scope(kernel);
    const std::vector<MarshalledTarget> &targets = genomeTargets();
    uint64_t cycles = 0;
    for (auto _ : state) {
        cycles = 0;
        for (const MarshalledTarget &target : targets) {
            IrComputeResult res = irCompute(target, 32, true);
            cycles += res.totalCycles();
            benchmark::DoNotOptimize(res);
        }
    }
    state.counters["targets"] = static_cast<double>(targets.size());
    state.counters["model_cycles"] = static_cast<double>(cycles);
}

void
BM_MarshalTarget(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    for (auto _ : state) {
        MarshalledTarget m = marshalTarget(input);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_MarshalTarget);

void
BM_MarshalTargetReuse(benchmark::State &state)
{
    IrTargetInput input = benchInput();
    MarshalledTarget m;
    for (auto _ : state) {
        marshalTargetInto(input, m);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_MarshalTargetReuse);

void
BM_SmithWaterman(benchmark::State &state)
{
    Rng rng(0x5117);
    BaseSeq window;
    for (int b = 0; b < 300; ++b)
        window.push_back(kConcreteBases[rng.below(4)]);
    BaseSeq read = window.substr(100, 100);
    read.erase(40, 3);
    for (auto _ : state) {
        SwAlignment aln = smithWaterman(window, read);
        benchmark::DoNotOptimize(aln);
    }
}
BENCHMARK(BM_SmithWaterman);

/** Register the per-dispatch-variant benchmarks. */
void
registerDispatchBenchmarks()
{
    for (SimdKernel kernel : supportedSimdKernels()) {
        const std::string kname = simdKernelName(kernel);
        for (bool prune : {false, true}) {
            std::string name = "BM_MinWhd/" + kname + "/" +
                               (prune ? "pruned" : "full");
            benchmark::RegisterBenchmark(
                name.c_str(),
                [kernel, prune](benchmark::State &st) {
                    BM_MinWhd(st, kernel, prune);
                });
        }
        std::string name = "BM_IrComputeWidth/" + kname;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kernel](benchmark::State &st) {
                BM_IrComputeWidth(st, kernel);
            })
            ->Arg(1)
            ->Arg(2)
            ->Arg(4)
            ->Arg(8)
            ->Arg(16)
            ->Arg(32);
        name = "BM_IrComputeGenome/" + kname;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [kernel](benchmark::State &st) {
                BM_IrComputeGenome(st, kernel);
            })
            ->Unit(benchmark::kMillisecond);
    }
}

// ---- Self-timed iracc-bench-v1 section -------------------------

/**
 * comparisons/second of @p run (one pass, returning the
 * comparisons it executed): run batches until the measurement
 * window is long enough to trust, then take the best of a few
 * repeats (the repeat least disturbed by the machine).
 */
template <typename Pass>
double
measureRate(Pass run)
{
    // Warm up + count one pass's work.
    const double work = static_cast<double>(run());

    // Calibrate batch size to >= ~30 ms.
    uint64_t batch = 1;
    double secs = 0.0;
    for (;;) {
        Timer t;
        for (uint64_t i = 0; i < batch; ++i)
            run();
        secs = t.seconds();
        if (secs >= 0.03 || batch > (1ull << 24))
            break;
        batch *= 2;
    }
    double best = secs;
    for (int rep = 0; rep < 2; ++rep) {
        Timer t;
        for (uint64_t i = 0; i < batch; ++i)
            run();
        best = std::min(best, t.seconds());
    }
    return work * static_cast<double>(batch) / best;
}

/** comparisons/second of minWhd (software, per-comparison). */
double
measureMinWhdRate(SimdKernel kernel, bool prune,
                  const IrTargetInput &input)
{
    ScopedSimdKernel scope(kernel);
    return measureRate([&] {
        WhdStats s;
        MinWhdGrid grid = minWhd(input, prune, &s);
        benchmark::DoNotOptimize(grid);
        return s.comparisons;
    });
}

/**
 * The width-32 pruned sweep of each (consensus, read) pair on its
 * own.  irCompute runs sweepTarget, which replays chunk rows shared
 * across consensuses instead; this rates the per-pair whdSweep lane
 * sweep at pruneChunk 32.
 */
WhdSweepResult
chunk32Sweep(SimdKernel kernel, const IrTargetInput &input)
{
    WhdSweepResult total;
    for (const BaseSeq &cons : input.consensuses) {
        for (size_t j = 0; j < input.readBases.size(); ++j) {
            const BaseSeq &read = input.readBases[j];
            if (read.size() > cons.size())
                continue;
            const WhdSweepResult r = whdSweep(
                reinterpret_cast<const uint8_t *>(cons.data()),
                cons.size(),
                reinterpret_cast<const uint8_t *>(read.data()),
                input.readQuals[j].data(), read.size(), true,
                /*pruneChunk=*/32, kernel);
            benchmark::DoNotOptimize(r.best);
            total.comparisons += r.comparisons;
            total.chunks += r.chunks;
            total.offsetsPruned += r.offsetsPruned;
        }
    }
    return total;
}

/** comparisons/second of the width-32 per-pair pruned sweep. */
double
measureChunk32Rate(SimdKernel kernel, const IrTargetInput &input)
{
    return measureRate(
        [&] { return chunk32Sweep(kernel, input).comparisons; });
}

void
emitBenchJson(const std::string &path)
{
    obs::BenchReport report("kernel_microbench",
                            "Section II-C kernel cost");
    const IrTargetInput input = benchInput();

    // Deterministic work counters and model cycles: any drift is a
    // semantics change, so the gate pins them exactly.
    {
        WhdStats full, pruned;
        minWhd(input, false, &full);
        minWhd(input, true, &pruned);
        report.addValue("n_minwhd_full_comparisons",
                        static_cast<double>(full.comparisons));
        report.addValue("n_minwhd_pruned_comparisons",
                        static_cast<double>(pruned.comparisons));
        report.addValue("n_minwhd_offsets",
                        static_cast<double>(full.offsetsEvaluated));
        report.addValue(
            "n_minwhd_pruned_offsets_pruned",
            static_cast<double>(pruned.offsetsPruned));
        const WhdSweepResult chunk32 =
            chunk32Sweep(SimdKernel::Scalar, input);
        report.addValue("n_minwhd_chunk32_comparisons",
                        static_cast<double>(chunk32.comparisons));
        report.addValue("n_minwhd_chunk32_chunks",
                        static_cast<double>(chunk32.chunks));
        report.addValue(
            "n_minwhd_chunk32_offsets_pruned",
            static_cast<double>(chunk32.offsetsPruned));
        MarshalledTarget target = marshalTarget(input);
        for (uint32_t width : {1u, 8u, 32u}) {
            IrComputeResult res = irCompute(target, width, true);
            report.addValue("n_ircompute_w" +
                                std::to_string(width) + "_cycles",
                            static_cast<double>(res.totalCycles()));
        }
    }

    // Per-variant throughput plus same-run speedups vs scalar
    // (ratios cancel most machine noise, so the gate can hold them
    // to a floor).
    const double scalar_full =
        measureMinWhdRate(SimdKernel::Scalar, false, input);
    const double scalar_pruned =
        measureMinWhdRate(SimdKernel::Scalar, true, input);
    for (SimdKernel kernel : supportedSimdKernels()) {
        const std::string kname = simdKernelName(kernel);
        const double full =
            kernel == SimdKernel::Scalar
                ? scalar_full
                : measureMinWhdRate(kernel, false, input);
        const double pruned =
            kernel == SimdKernel::Scalar
                ? scalar_pruned
                : measureMinWhdRate(kernel, true, input);
        report.addValue("rate_minwhd_full_" + kname + "_cps", full);
        report.addValue("rate_minwhd_pruned_" + kname + "_cps",
                        pruned);
        report.addValue("rate_minwhd_chunk32_" + kname + "_cps",
                        measureChunk32Rate(kernel, input));
        if (kernel != SimdKernel::Scalar) {
            report.addValue("speedup_unpruned_" + kname,
                            full / scalar_full);
            report.addValue("speedup_pruned_" + kname,
                            pruned / scalar_pruned);
        }
    }

    report.writeToPath(path);
}

} // namespace
} // namespace iracc

int
main(int argc, char **argv)
{
    // Resolve --json before google-benchmark sees (and rejects)
    // unknown flags, then strip it from argv.  The path is checked
    // now, not after minutes of benchmarking.
    std::string json_path =
        iracc::obs::BenchReport::jsonPathFromArgs(argc, argv);
    if (!json_path.empty())
        iracc::requireWritable(json_path);
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            ++i; // skip the path operand too
            continue;
        }
        args.push_back(argv[i]);
    }
    int args_count = static_cast<int>(args.size());

    iracc::registerDispatchBenchmarks();
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!json_path.empty())
        iracc::emitBenchJson(json_path);
    return 0;
}
