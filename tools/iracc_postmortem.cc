/**
 * @file
 * iracc_postmortem -- render a post-mortem bundle (written by a
 * RealignJob that finished Degraded/Failed, or by iracc_cli
 * --postmortem) into a human-readable incident report.
 *
 *   iracc_postmortem <bundle-dir> [--events N] [--all-events 1]
 *
 * The report leads with the run's health and recovery counters,
 * then the per-card fleet table, the per-target latency
 * percentiles, the replayable fault plans, and finally the tail of
 * the canonical event log (warnings and errors first; --all-events
 * includes the debug-level schedule noise).  Everything printed is
 * parsed back out of the bundle's JSON files, so the report can
 * never disagree with the machine-readable record.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace iracc;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    fatal_if(!f, "cannot open '%s' -- is this a post-mortem "
                 "bundle directory?",
             path.c_str());
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::string error;
    JsonValue v = JsonValue::parse(slurp(path), &error);
    fatal_if(!error.empty(), "%s: %s", path.c_str(),
             error.c_str());
    return v;
}

uint64_t
num(const JsonValue &obj, const char *key)
{
    return obj.has(key)
               ? static_cast<uint64_t>(obj.at(key).asNumber())
               : 0;
}

/** One parsed events.json line. */
struct BundleEvent
{
    std::string severity;
    std::string line; ///< matching canonical events.log line
};

std::vector<BundleEvent>
loadEvents(const std::string &dir)
{
    std::vector<BundleEvent> out;
    std::istringstream json(slurp(dir + "/events.json"));
    std::istringstream text(slurp(dir + "/events.log"));
    std::string jline, tline;
    while (std::getline(json, jline)) {
        if (!std::getline(text, tline))
            tline = jline; // events.log shorter than events.json
        if (jline.empty())
            continue;
        std::string error;
        JsonValue e = JsonValue::parse(jline, &error);
        fatal_if(!error.empty(), "events.json: %s", error.c_str());
        out.push_back(BundleEvent{e.at("severity").asString(),
                                  tline});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argv[1][0] == '-') {
        std::fprintf(stderr,
                     "usage: iracc_postmortem <bundle-dir> "
                     "[--events N] [--all-events 1]\n");
        return 1;
    }
    std::string dir = argv[1];
    size_t max_events = 40;
    bool all_severities = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--events") == 0)
            max_events = static_cast<size_t>(
                std::atoll(argv[i + 1]));
        else if (std::strcmp(argv[i], "--all-events") == 0)
            all_severities = std::atoll(argv[i + 1]) != 0;
    }

    JsonValue summary = parseJsonFile(dir + "/summary.json");
    const std::string status = summary.at("status").asString();

    std::printf("== iracc incident report: %s ==\n", dir.c_str());
    std::printf("backend:  %s\n",
                summary.at("backend").asString().c_str());
    std::printf("fleet:    %llu card(s), stealing %s\n",
                static_cast<unsigned long long>(
                    num(summary, "cards")),
                summary.at("stealing").asBool() ? "on" : "off");
    std::printf("status:   %s", status.c_str());
    auto contigList = [&summary](const char *key) {
        std::string out;
        for (const JsonValue &c : summary.at(key).asArray()) {
            if (!out.empty())
                out += ",";
            out += std::to_string(
                static_cast<long long>(c.asNumber()));
        }
        return out;
    };
    if (summary.at("degradedContigs").size() > 0)
        std::printf(" (degraded contigs: %s)",
                    contigList("degradedContigs").c_str());
    if (summary.at("failedContigs").size() > 0)
        std::printf(" (failed contigs: %s)",
                    contigList("failedContigs").c_str());
    std::printf("\n");

    const JsonValue &rec = summary.at("recovery");
    std::printf("\n-- recovery --\n");
    std::printf("faults injected:    %llu\n",
                static_cast<unsigned long long>(
                    num(rec, "faultsInjected")));
    struct
    {
        const char *key;
        const char *label;
    } counters[] = {
        {"checksumInputCatches", "input CRC catches"},
        {"checksumOutputCatches", "output CRC catches"},
        {"watchdogCatches", "watchdog catches"},
        {"retries", "retries"},
        {"retrySuccesses", "retry successes"},
        {"softwareFallbacks", "software fallbacks"},
        {"quarantinedUnits", "quarantined units"},
        {"quarantinedCards", "quarantined cards"},
        {"migratedTargets", "migrated targets"},
        {"failedTargets", "failed targets"},
    };
    for (const auto &c : counters) {
        if (num(rec, c.key) > 0)
            std::printf("%-19s %llu\n",
                        (std::string(c.label) + ":").c_str(),
                        static_cast<unsigned long long>(
                            num(rec, c.key)));
    }

    const JsonValue &fleet = summary.at("fleet");
    if (fleet.size() > 0) {
        std::printf("\n-- fleet --\n");
        Table t({"Card", "BusyCycles", "Targets", "Shards",
                 "Steals", "Migrations"});
        for (const JsonValue &c : fleet.asArray()) {
            t.addRow({std::to_string(num(c, "card")),
                      std::to_string(num(c, "busyCycles")),
                      std::to_string(num(c, "targets")),
                      std::to_string(num(c, "shards")),
                      std::to_string(num(c, "steals")),
                      std::to_string(num(c, "migrations"))});
        }
        t.print();
    }

    const JsonValue &lat = summary.at("latency");
    const JsonValue &cyc = lat.at("cycles");
    if (num(cyc, "count") > 0) {
        std::printf("\n-- per-target latency --\n");
        Table t({"Domain", "Count", "p50", "p90", "p99", "p99.9",
                 "Max"});
        for (const char *domain : {"cycles", "ns"}) {
            const JsonValue &h = lat.at(domain);
            t.addRow({domain, std::to_string(num(h, "count")),
                      std::to_string(num(h, "p50")),
                      std::to_string(num(h, "p90")),
                      std::to_string(num(h, "p99")),
                      std::to_string(num(h, "p999")),
                      std::to_string(num(h, "max"))});
        }
        t.print();
    }

    const JsonValue &plans = summary.at("faultPlans");
    if (plans.size() > 0) {
        std::printf("\n-- fault plans (replayable; see "
                    "fault_plan.txt) --\n");
        for (size_t k = 0; k < plans.size(); ++k) {
            const std::string &p = plans.at(k).asString();
            std::printf("card %zu: %s\n", k,
                        p.empty() ? "(none)" : p.c_str());
        }
    }

    std::vector<BundleEvent> events = loadEvents(dir);
    std::vector<const BundleEvent *> shown;
    for (const BundleEvent &e : events) {
        if (all_severities || e.severity == "ERROR" ||
            e.severity == "WARN" || e.severity == "INFO")
            shown.push_back(&e);
    }
    std::printf("\n-- event log (%zu of %zu events%s) --\n",
                shown.size() > max_events ? max_events
                                          : shown.size(),
                events.size(),
                all_severities ? "" : "; --all-events 1 for the "
                                      "debug schedule");
    size_t start = shown.size() > max_events
                       ? shown.size() - max_events
                       : 0;
    if (start > 0)
        std::printf("... (%zu earlier events elided; --events 0 "
                    "shows none, larger N more)\n",
                    start);
    for (size_t i = start; i < shown.size(); ++i)
        std::printf("%s\n", shown[i]->line.c_str());
    return status == "failed" ? 4 : status == "degraded" ? 3 : 0;
}
