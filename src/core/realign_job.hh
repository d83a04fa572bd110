/**
 * @file
 * The genome-level realignment job engine.
 *
 * The paper's end-to-end claim (Section V-A, Figure 9: 42 h ->
 * 31 min) is about a whole genome, not a contig.  A RealignSession
 * takes the complete read set, partitions it by contig once, and
 * drives every contig through the staged pipeline
 * (Plan -> Prepare -> Execute -> Apply) concurrently on a worker
 * pool -- accelerated backends draw per-contig card leases from
 * their shared CardFleet (accel/card_fleet.hh), deterministic
 * per-contig RNG streams, statistics and performance counters
 * merged in contig order at the barrier.  Results are
 * bit-identical for any thread count, card count, and stealing
 * setting (asserted by tests/realign_job_test.cc).
 */

#ifndef IRACC_CORE_REALIGN_JOB_HH
#define IRACC_CORE_REALIGN_JOB_HH

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/realigner_api.hh"
#include "core/stage_pipeline.hh"
#include "genomics/stream_io.hh"

namespace iracc {

namespace obs {
struct Observability;
}

/**
 * One contig's completion notice, delivered through
 * RealignJobConfig::onProgress while a job runs.  Coordinates
 * match the flight recorder's (contig id, card-busy virtual time,
 * per-job completion sequence), so a consumer can correlate the
 * stream with a post-mortem event log.
 */
struct RealignJobProgress
{
    int32_t contig = 0;

    /** Contigs finished so far, including this one. */
    uint64_t contigsDone = 0;

    /** Contigs the job will run in total. */
    uint64_t contigsTotal = 0;

    /** The contig's health (Ok unless recovery fired). */
    RunStatus status = RunStatus::Ok;

    /** Targets realigned on this contig. */
    uint64_t targets = 0;

    /** Virtual (cycle-domain) completion time of the contig; 0 for
     *  software backends and for skipped contigs. */
    uint64_t vtime = 0;

    /** True when the contig was skipped by a cancellation request
     *  instead of being realigned. */
    bool skipped = false;
};

/** Configuration of a genome-level realignment job. */
struct RealignJobConfig
{
    /**
     * Contig-level worker threads.  Each worker owns one contig at
     * a time with its own Execute stage (its own card lease off
     * the shared fleet for accelerated backends); 1 = serial
     * contig loop.  The
     * effective worker count is capped at the contig count and at
     * the host's hardware concurrency (extra workers only thrash
     * caches); results are bit-identical for any value.
     */
    uint32_t threads = 1;

    /**
     * Optional host observability (null = uninstrumented): one
     * "contig N" span per contig with a
     * `realign.job.contig_ns` histogram, a "job barrier"
     * span with `realign.job.barrier_wait_ns`, a
     * `realign.job.contigs` counter, worker-pool gauges under
     * `realign.pool.*`, and per-stage instrumentation threaded
     * into runContigPipeline.  Results stay bit-identical;
     * observability only reads timings and counts.
     */
    obs::Observability *obs = nullptr;

    /**
     * Post-mortem bundle directory (core/postmortem.hh).  When
     * non-empty, a job that finishes Degraded or Failed writes a
     * bundle there; empty (default) disables the writer.  The
     * flight recorder itself is always on either way.
     */
    std::string postmortemDir;

    /** Write the bundle even when the job finishes Ok (the CLI's
     *  --postmortem switch). */
    bool postmortemAlways = false;

    /**
     * Cooperative cancellation token.  When non-null, every worker
     * checks it before starting a contig; once it reads true, not-
     * yet-started contigs are *skipped* -- their reads stay
     * unrealigned, exactly the Failed-contig semantic -- while
     * contigs already executing run to completion (the pipeline is
     * never torn down mid-contig, so partial output cannot leak).
     * A job with skipped contigs reports cancelled = true and
     * status Failed, and releases its fleet leases and worker
     * threads normally.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Per-contig progress stream.  When set, invoked once per
     * contig right after the contig completes (or is skipped by a
     * cancellation), from the worker thread that ran it; the
     * callback must be thread-safe.  Keep it cheap -- it runs
     * between contigs on the job's critical path.
     */
    std::function<void(const RealignJobProgress &)> onProgress;
};

/** One contig's slice of a job result. */
struct ContigJobResult
{
    int32_t contig = 0;
    BackendRunResult run;
};

/** Aggregate result of a genome-level realignment job. */
struct RealignJobResult
{
    /** Per-contig results, ascending contig order. */
    std::vector<ContigJobResult> contigs;

    /** Statistics merged over all contigs (contig order). */
    RealignStats stats;

    /** Measured host wall-clock of the whole job. */
    double wallSeconds = 0.0;

    /**
     * Accelerated backends: modeled FPGA seconds summed over
     * contigs, i.e. what a serial one-card deployment takes; 0 for
     * software backends.
     */
    double fpgaSeconds = 0.0;

    /**
     * Accelerated backends: the slowest contig's modeled FPGA
     * seconds, the lower bound of a fleet deployment with one card
     * per contig (the Section VI fleet-sizing view); 0 for software
     * backends.
     */
    double criticalPathSeconds = 0.0;

    /**
     * Accelerated backends: Execute host time by phase and
     * simulator events, summed over contigs; published at the job
     * barrier as `realign.execute.*`.
     */
    ExecuteHostSplit execHost;

    /** True when the backend ran on the cycle-level simulator. */
    bool simulated = false;

    /**
     * Performance counters merged over all contigs at the job
     * barrier, each contig's trace under its contig id as the
     * Chrome trace pid.  On a multi-card fleet the pid is
     * contig * cards + card, one Chrome process per (contig,
     * card) (see docs/OBSERVABILITY.md).
     */
    PerfReport perf;

    /**
     * Fleet dispatch accounting merged over all contigs (rows
     * matched by card id; empty for software backends).
     */
    FleetExecStats fleet;

    /**
     * Recovery counters merged over all contigs, and the worst
     * per-contig health.  A Degraded job produced fully correct
     * output through retries/fallbacks; a Failed job left the
     * reads of `failedContigs` (partially) unrealigned rather than
     * aborting (see docs/ROBUSTNESS.md).
     */
    RecoveryStats recovery;
    RunStatus status = RunStatus::Ok;
    std::vector<int32_t> degradedContigs;
    std::vector<int32_t> failedContigs;

    /**
     * True when a cancellation request skipped at least one
     * contig.  Skipped contigs are listed in `skippedContigs` (a
     * subset of `failedContigs`: their reads were left unrealigned)
     * and the job's status is Failed.
     */
    bool cancelled = false;
    std::vector<int32_t> skippedContigs;

    /**
     * Per-target latency percentiles merged exactly over all
     * contigs (accelerated backends; empty for software).  Cycle
     * domain plus modeled nanoseconds -- see
     * docs/OBSERVABILITY.md "Latency percentiles".
     */
    obs::LatencyHistogram targetLatencyCycles;
    obs::LatencyHistogram targetLatencyNanos;

    /** Path of the post-mortem bundle this run wrote ("" = none). */
    std::string postmortemPath;
};

/**
 * The job's runtime on the clock its backend reports:
 * `fpgaSeconds` (modeled, cycles / clock) for a simulated job and
 * `wallSeconds` (measured on this host) otherwise.  This is the one
 * place that picks a clock per backend; every comparison across
 * backends (Figure 9's speedups, the cost tables) reads it.  A
 * ratio of two backends built from it divides modeled time by host
 * wall-clock, so it is machine-bound: it moves with the host that
 * ran the software side and is never gated as portable.
 */
double machineBoundSeconds(const RealignJobResult &job);

/**
 * Result of a streaming realignment run: the aggregate job result
 * plus the ingest outcome.  A parse error does not abort the
 * process -- groups realigned before the error are merged into
 * `job` and already delivered to the sink; the caller decides what
 * to do with the partial output (the file pass, core/file_pass.hh,
 * fails the job and removes it).
 */
struct StreamRealignResult
{
    RealignJobResult job;

    /** False when ingest stopped on malformed input. */
    bool parseOk = true;

    /** The rejection, valid when !parseOk. */
    ParseError parseError;

    /** Contig batches consumed from the source. */
    uint64_t batches = 0;

    /** Reads realigned and delivered to the sink. */
    uint64_t readsStreamed = 0;
};

/**
 * A reusable genome-level realignment session binding one backend
 * to a job configuration.  Thread-compatible: run() may be called
 * repeatedly; each call is internally parallel.
 */
class RealignSession
{
  public:
    RealignSession(std::unique_ptr<const RealignerBackend> backend,
                   RealignJobConfig config = {});

    const RealignerBackend &backend() const { return *be; }
    const RealignJobConfig &config() const { return cfg; }

    /**
     * Realign every contig that has reads, mutating @p reads in
     * place.  Contigs run concurrently on config().threads
     * workers; reads of different contigs are disjoint, so
     * workers never touch the same element.
     */
    RealignJobResult run(const ReferenceGenome &ref,
                         std::vector<Read> &reads) const;

    /** Realign an explicit contig set (ascending processing order). */
    RealignJobResult run(const ReferenceGenome &ref,
                         const std::vector<int32_t> &contigs,
                         std::vector<Read> &reads) const;

    /**
     * Per-call configuration overloads: run one job with @p job_cfg
     * instead of the session-bound config, sharing the session's
     * backend (and hence its CardFleet).  This is what makes the
     * session a scheduler substrate -- the server runs many
     * tenants' jobs, each with its own thread count,
     * cancellation token, and progress sink, through one session
     * (src/server/job_scheduler.hh).
     */
    RealignJobResult run(const ReferenceGenome &ref,
                         std::vector<Read> &reads,
                         const RealignJobConfig &job_cfg) const;

    RealignJobResult run(const ReferenceGenome &ref,
                         const std::vector<int32_t> &contigs,
                         std::vector<Read> &reads,
                         const RealignJobConfig &job_cfg) const;

    /** One-contig convenience. */
    RealignJobResult runContig(const ReferenceGenome &ref,
                               int32_t contig,
                               std::vector<Read> &reads) const;

    /**
     * Bounded-memory streaming run: pull contig batches from
     * @p source, realign up to job_cfg.threads contigs' worth at a
     * time (one group), and hand each group's realigned reads --
     * in input order -- to @p sink before pulling the next.  Peak
     * resident memory is therefore bounded by `threads` times the
     * largest contig batch, independent of genome size, which is
     * the property the CI streaming-ingest job asserts.
     *
     * Bit-equality contract (asserted by tests/stream_io_test.cc
     * and docs/TESTING.md): for contig-grouped input, concatenating
     * the sink payloads reproduces the in-memory run's realigned
     * read sequence byte for byte, and the merged RealignStats are
     * identical -- per-contig results depend only on the contig
     * and the stats reduction is purely additive, so the grouping
     * is unobservable in the output.
     *
     * Differences from run(): progress callbacks report
     * contigsTotal as the count of contigs *seen so far* (a lower
     * bound -- the stream's length is unknown); a post-mortem
     * bundle may be written per group, with the last path kept.
     * Cancellation stops the stream after the current group.  On a
     * parse error the partially collected group is discarded
     * unrealigned and the result carries parseOk = false.
     */
    StreamRealignResult runStreamed(
        const ReferenceGenome &ref, SamLiteBatchSource &source,
        const std::function<void(std::vector<Read> &reads)> &sink,
        const RealignJobConfig &job_cfg) const;

    /** Streaming run with the session-bound configuration. */
    StreamRealignResult runStreamed(
        const ReferenceGenome &ref, SamLiteBatchSource &source,
        const std::function<void(std::vector<Read> &reads)> &sink)
        const;

  private:
    std::unique_ptr<const RealignerBackend> be;
    RealignJobConfig cfg;
};

/** Build a session over a registry backend (see makeBackend). */
RealignSession makeSession(const std::string &backend_name,
                           RealignJobConfig config = {},
                           bool perf_counters = false,
                           bool perf_trace = false);

} // namespace iracc

#endif // IRACC_CORE_REALIGN_JOB_HH
