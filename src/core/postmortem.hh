/**
 * @file
 * Post-mortem bundles: the deterministic on-disk incident record a
 * realignment job writes when it finishes Degraded or Failed (or
 * on demand, iracc_cli --postmortem).
 *
 * A bundle is a directory of small text files:
 *
 *   events.log      canonically ordered flight-recorder event log
 *                   (obs/flight_recorder.hh formatText lines) --
 *                   byte-identical for a given (workload,
 *                   fault plan, cards, stealing) regardless of
 *                   thread count or wall-clock jitter
 *   events.json     the same events, one JSON object per line
 *   metrics.json    MetricsRegistry::writeJson snapshot ("{}" when
 *                   the job ran uninstrumented)
 *   summary.json    run health: status, degraded/failed contigs,
 *                   RecoveryStats, per-card fleet rows, per-target
 *                   latency percentiles in both clock domains
 *   fault_plan.txt  the active per-card FaultPlans in replayable
 *                   canonical text form (fault/fault.hh), one
 *                   "card <k> <plan>" line per card
 *
 * tools/iracc_postmortem renders a bundle into a human-readable
 * incident report; tests/postmortem_test.cc golden-matches
 * events.log and replays fault_plan.txt through the corpus
 * machinery.
 */

#ifndef IRACC_CORE_POSTMORTEM_HH
#define IRACC_CORE_POSTMORTEM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "obs/metrics.hh"

namespace iracc {

/** Identity of the run a bundle describes. */
struct PostmortemOptions
{
    /** Bundle directory; created (recursively) when missing. */
    std::string dir;

    /** Backend registry name (summary.json provenance). */
    std::string backend;

    /** Provisioned fleet shape. */
    uint32_t cards = 1;
    bool stealing = false;

    /** Canonical per-card FaultPlan text (fault/fault.hh); may be
     *  shorter than `cards` (remaining cards are fault-free). */
    std::vector<std::string> faultPlans;
};

/**
 * Write the bundle for @p job into opt.dir.  Snapshots the global
 * FlightRecorder (canonical order); @p metrics may be null.
 * @return the bundle directory path.
 */
std::string writePostmortemBundle(const RealignJobResult &job,
                                  const PostmortemOptions &opt,
                                  const obs::MetricsRegistry *metrics
                                  = nullptr);

} // namespace iracc

#endif // IRACC_CORE_POSTMORTEM_HH
