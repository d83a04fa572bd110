#include "core/postmortem.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault.hh"
#include "obs/flight_recorder.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    fatal_if(!os, "postmortem: cannot write '%s'", path.c_str());
    os << content;
    fatal_if(!os.good(), "postmortem: short write to '%s'",
             path.c_str());
}

void
writeLatency(std::ostringstream &os, const obs::LatencyHistogram &h)
{
    os << "{\"count\":" << h.count() << ",\"sum\":" << h.total()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max()
       << ",\"p50\":" << h.p50() << ",\"p90\":" << h.p90()
       << ",\"p99\":" << h.p99() << ",\"p999\":" << h.p999()
       << "}";
}

std::string
summaryJson(const RealignJobResult &job,
            const PostmortemOptions &opt)
{
    std::ostringstream os;
    os << "{\"version\":1";
    os << ",\"backend\":" << jsonQuote(opt.backend);
    os << ",\"seed\":" << opt.seed;
    os << ",\"cards\":" << opt.cards;
    os << ",\"stealing\":" << (opt.stealing ? "true" : "false");
    os << ",\"status\":" << jsonQuote(runStatusName(job.status));
    os << ",\"contigs\":" << job.contigs.size();
    os << ",\"degradedContigs\":[";
    for (size_t i = 0; i < job.degradedContigs.size(); ++i)
        os << (i ? "," : "") << job.degradedContigs[i];
    os << "],\"failedContigs\":[";
    for (size_t i = 0; i < job.failedContigs.size(); ++i)
        os << (i ? "," : "") << job.failedContigs[i];
    os << "]";

    const RecoveryStats &r = job.recovery;
    os << ",\"recovery\":{"
       << "\"faultsInjected\":" << r.faultsInjected;
    for (size_t k = 0; k < kNumFaultKinds; ++k) {
        os << "," << jsonQuote(std::string("faults.") +
                               faultKindName(
                                   static_cast<FaultKind>(k)))
           << ":" << r.faultsByKind[k];
    }
    os << ",\"checksumInputCatches\":" << r.checksumInputCatches
       << ",\"checksumOutputCatches\":" << r.checksumOutputCatches
       << ",\"watchdogCatches\":" << r.watchdogCatches
       << ",\"retries\":" << r.retries
       << ",\"retrySuccesses\":" << r.retrySuccesses
       << ",\"softwareFallbacks\":" << r.softwareFallbacks
       << ",\"quarantinedUnits\":" << r.quarantinedUnits
       << ",\"quarantinedCards\":" << r.quarantinedCards
       << ",\"migratedTargets\":" << r.migratedTargets
       << ",\"failedTargets\":" << r.failedTargets << "}";

    os << ",\"fleet\":[";
    for (size_t i = 0; i < job.fleet.cards.size(); ++i) {
        const FleetCardExecStats &c = job.fleet.cards[i];
        os << (i ? "," : "") << "{\"card\":" << c.card
           << ",\"busyCycles\":" << c.busyCycles
           << ",\"targets\":" << c.targets
           << ",\"shards\":" << c.shards
           << ",\"steals\":" << c.steals
           << ",\"migrations\":" << c.migrations << "}";
    }
    os << "]";

    os << ",\"latency\":{\"cycles\":";
    writeLatency(os, job.targetLatencyCycles);
    os << ",\"ns\":";
    writeLatency(os, job.targetLatencyNanos);
    os << "}";

    os << ",\"faultPlans\":[";
    for (size_t i = 0; i < opt.faultPlans.size(); ++i)
        os << (i ? "," : "") << jsonQuote(opt.faultPlans[i]);
    os << "]}";
    os << "\n";
    return os.str();
}

} // anonymous namespace

std::string
writePostmortemBundle(const RealignJobResult &job,
                      const PostmortemOptions &opt,
                      const obs::MetricsRegistry *metrics)
{
    fatal_if(opt.dir.empty(), "postmortem: empty bundle directory");
    std::error_code ec;
    std::filesystem::create_directories(opt.dir, ec);
    fatal_if(static_cast<bool>(ec),
             "postmortem: cannot create '%s': %s", opt.dir.c_str(),
             ec.message().c_str());

    obs::FlightRecorder &fr = obs::FlightRecorder::instance();
    std::vector<obs::FrEvent> events = fr.snapshot();

    std::ostringstream text, json;
    for (const obs::FrEvent &e : events) {
        text << fr.formatText(e) << "\n";
        json << fr.formatJson(e) << "\n";
    }

    std::ostringstream metricsDoc;
    if (metrics != nullptr)
        metrics->writeJson(metricsDoc);
    else
        metricsDoc << "{}";
    metricsDoc << "\n";

    std::ostringstream plans;
    plans << "# iracc post-mortem fault plans v1\n"
          << "# one replayable FaultPlan (fault/fault.hh text "
             "form) per card\n";
    for (uint32_t k = 0; k < opt.cards; ++k) {
        plans << "card " << k;
        if (k < opt.faultPlans.size() &&
            !opt.faultPlans[k].empty()) {
            plans << ' ' << opt.faultPlans[k];
        }
        plans << "\n";
    }

    const std::filesystem::path dir(opt.dir);
    writeFile((dir / "events.log").string(), text.str());
    writeFile((dir / "events.json").string(), json.str());
    writeFile((dir / "metrics.json").string(), metricsDoc.str());
    writeFile((dir / "summary.json").string(),
              summaryJson(job, opt));
    writeFile((dir / "fault_plan.txt").string(), plans.str());
    return opt.dir;
}

} // namespace iracc
