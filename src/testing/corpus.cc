#include "testing/corpus.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "genomics/io.hh"
#include "util/logging.hh"

namespace iracc {
namespace difftest {

namespace {

/** Escape newlines so detail strings stay one-line. */
std::string
oneLine(const std::string &s)
{
    std::string out;
    for (char c : s)
        out.push_back(c == '\n' ? ' ' : c);
    return out;
}

std::string
qualsToDecimal(std::span<const uint8_t> quals)
{
    std::ostringstream os;
    for (size_t i = 0; i < quals.size(); ++i) {
        if (i != 0)
            os << ',';
        os << static_cast<unsigned>(quals[i]);
    }
    return os.str();
}

QualSeq
decimalToQuals(const std::string &s)
{
    QualSeq out;
    std::istringstream is(s);
    std::string tok;
    while (std::getline(is, tok, ',')) {
        int v = std::stoi(tok);
        fatal_if(v < 0 || v > 255,
                 "corpus quality %d out of range", v);
        out.push_back(static_cast<uint8_t>(v));
    }
    return out;
}

/** Collect the lines between "begin <tag>" and "end <tag>". */
std::string
readSection(std::istream &is, const std::string &tag)
{
    std::string line, body;
    const std::string end = "end " + tag;
    while (std::getline(is, line)) {
        if (line == end)
            return body;
        body += line;
        body += '\n';
    }
    fatal("corpus case: unterminated section '%s'", tag.c_str());
    return body;
}

} // anonymous namespace

void
writeReproCase(std::ostream &os, const ReproCase &repro)
{
    fatal_if(repro.kind != "pipeline" && repro.kind != "kernel" &&
                 repro.kind != "fault",
             "unknown repro kind '%s'", repro.kind.c_str());
    os << "# iracc-diff repro case v1\n";
    os << "kind " << repro.kind << '\n';
    os << "seed " << repro.seed << '\n';
    if (!repro.variant.empty())
        os << "variant " << oneLine(repro.variant) << '\n';
    if (!repro.detail.empty())
        os << "detail " << oneLine(repro.detail) << '\n';
    if (repro.kind == "fault") {
        fatal_if(repro.faultPlan.empty(),
                 "fault repro case needs a fault plan");
        os << "faultplan " << oneLine(repro.faultPlan) << '\n';
    }
    if (repro.kind != "kernel") {
        os << "begin reference\n";
        writeFasta(os, repro.reference);
        os << "end reference\n";
        os << "begin reads\n";
        writeSamLite(os, repro.reference, repro.reads);
        os << "end reads\n";
        return;
    }
    os << "window " << repro.target.windowStart << ' '
       << repro.target.windowEnd << '\n';
    os << "begin consensuses\n";
    for (const BaseSeq &cons : repro.target.consensuses)
        os << cons << '\n';
    os << "end consensuses\n";
    os << "begin reads\n";
    for (const SeqSlice &read : repro.target.readSeqs)
        os << read.bases() << ' ' << qualsToDecimal(read.quals()) << '\n';
    os << "end reads\n";
}

ReproCase
readReproCase(std::istream &is)
{
    ReproCase repro;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "kind") {
            fields >> repro.kind;
        } else if (key == "seed") {
            fields >> repro.seed;
        } else if (key == "variant" || key == "detail" ||
                   key == "faultplan") {
            std::string rest;
            std::getline(fields, rest);
            if (!rest.empty() && rest[0] == ' ')
                rest.erase(0, 1);
            (key == "variant"
                 ? repro.variant
                 : key == "detail" ? repro.detail
                                   : repro.faultPlan) = rest;
        } else if (key == "window") {
            fields >> repro.target.windowStart >>
                repro.target.windowEnd;
            repro.target.target.start = repro.target.windowStart;
            repro.target.target.end = repro.target.windowEnd;
        } else if (key == "begin") {
            std::string tag;
            fields >> tag;
            std::string body = readSection(is, tag);
            std::istringstream section(body);
            if (tag == "reference") {
                repro.reference = readFasta(section);
            } else if (tag == "reads" &&
                       repro.kind != "kernel") {
                repro.reads = readSamLite(section, repro.reference);
            } else if (tag == "consensuses") {
                std::string cons;
                while (std::getline(section, cons)) {
                    if (cons.empty())
                        continue;
                    repro.target.consensuses.push_back(cons);
                    repro.target.events.emplace_back();
                }
            } else if (tag == "reads") {
                std::string entry;
                while (std::getline(section, entry)) {
                    if (entry.empty())
                        continue;
                    std::istringstream pair(entry);
                    std::string bases, quals;
                    fatal_if(!(pair >> bases >> quals),
                             "malformed kernel read line '%s'",
                             entry.c_str());
                    const QualSeq q = decimalToQuals(quals);
                    fatal_if(q.size() != bases.size(),
                             "kernel read line '%s': %zu bases, %zu "
                             "qualities",
                             entry.c_str(), bases.size(), q.size());
                    repro.target.readIndices.push_back(
                        static_cast<uint32_t>(
                            repro.target.readIndices.size()));
                    repro.target.addRead(bases, q);
                }
            } else {
                fatal("corpus case: unknown section '%s'",
                      tag.c_str());
            }
        } else {
            fatal("corpus case: unknown key '%s'", key.c_str());
        }
    }
    fatal_if(repro.kind != "pipeline" && repro.kind != "kernel" &&
                 repro.kind != "fault",
             "corpus case missing kind");
    fatal_if(repro.kind == "fault" && repro.faultPlan.empty(),
             "fault corpus case missing faultplan");
    return repro;
}

std::string
saveReproCase(const ReproCase &repro, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (int n = 0;; ++n) {
        std::ostringstream name;
        name << "repro-" << repro.kind << "-seed" << repro.seed
             << '-' << n << ".case";
        std::filesystem::path path =
            std::filesystem::path(dir) / name.str();
        if (std::filesystem::exists(path))
            continue;
        std::ofstream os(path);
        fatal_if(!os, "cannot write corpus case '%s'",
                 path.string().c_str());
        writeReproCase(os, repro);
        return path.string();
    }
}

ReproCase
loadReproCase(const std::string &path)
{
    std::ifstream is(path);
    fatal_if(!is, "cannot read corpus case '%s'", path.c_str());
    return readReproCase(is);
}

DiffResult
replayReproCase(const ReproCase &repro)
{
    if (repro.kind == "kernel")
        return diffKernelInput(repro.target);
    if (repro.kind == "fault") {
        return diffFaultPlan(repro.reference, repro.reads,
                             FaultPlan::parse(repro.faultPlan));
    }
    return diffPipeline(repro.reference, repro.reads);
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".case")
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace difftest
} // namespace iracc
