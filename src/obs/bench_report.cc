#include "obs/bench_report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/metrics.hh"
#include "util/argparse.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

#ifndef IRACC_GIT_DESCRIBE
#define IRACC_GIT_DESCRIBE "unknown"
#endif

namespace iracc {
namespace obs {

BenchReport::BenchReport(std::string bench_name,
                         std::string paper_ref)
    : bench(std::move(bench_name)), paperRef(std::move(paper_ref))
{
}

void
BenchReport::addValue(const std::string &key, double value)
{
    std::ostringstream text;
    if (std::isfinite(value))
        text << value;
    else
        text << "null";
    values.emplace_back(key, text.str());
}

void
BenchReport::addCount(const std::string &key, uint64_t count)
{
    values.emplace_back(key, std::to_string(count));
}

void
BenchReport::addTable(const std::string &name, const Table &table)
{
    BenchTable t;
    t.name = name;
    t.columns = table.header();
    t.rows = table.rowData();
    tables.push_back(std::move(t));
}

void
BenchReport::write(std::ostream &os) const
{
    os << "{\"schema\":\"iracc-bench-v1\""
       << ",\"bench\":" << jsonQuote(bench)
       << ",\"paperRef\":" << jsonQuote(paperRef)
       << ",\"scale\":" << scaleDiv << ",\"chromosomes\":[";
    for (size_t i = 0; i < chromosomes.size(); ++i)
        os << (i ? "," : "") << chromosomes[i];
    os << "],\"git\":" << jsonQuote(IRACC_GIT_DESCRIBE)
       << ",\"wallSeconds\":" << wall.seconds() << ",\"values\":{";
    for (size_t i = 0; i < values.size(); ++i) {
        os << (i ? "," : "") << jsonQuote(values[i].first) << ":"
           << values[i].second;
    }
    os << "},\"tables\":[";
    for (size_t i = 0; i < tables.size(); ++i) {
        const BenchTable &t = tables[i];
        os << (i ? "," : "") << "{\"name\":" << jsonQuote(t.name)
           << ",\"columns\":[";
        for (size_t c = 0; c < t.columns.size(); ++c) {
            os << (c ? "," : "") << jsonQuote(t.columns[c]);
        }
        os << "],\"rows\":[";
        for (size_t r = 0; r < t.rows.size(); ++r) {
            os << (r ? "," : "") << "[";
            for (size_t c = 0; c < t.rows[r].size(); ++c)
                os << (c ? "," : "") << jsonQuote(t.rows[r][c]);
            os << "]";
        }
        os << "]}";
    }
    os << "]";
    if (metrics) {
        os << ",\"metrics\":";
        metrics->writeJson(os);
    }
    os << "}\n";
}

std::string
BenchReport::jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") != 0)
            continue;
        if (i + 1 == argc)
            usageError("%s: --json expects a path", argv[0]);
        return argv[i + 1];
    }
    const char *env = std::getenv("IRACC_BENCH_JSON");
    return env ? env : "";
}

bool
BenchReport::writeToPath(const std::string &path) const
{
    if (path.empty())
        return false;
    std::ofstream f(path);
    fatal_if(!f, "cannot write bench JSON '%s'", path.c_str());
    write(f);
    std::printf("\nwrote %s (schema iracc-bench-v1)\n",
                path.c_str());
    return true;
}

void
BenchReport::setOutputPath(const std::string &path)
{
    if (!path.empty())
        requireWritable(path);
    outputPath = path;
}

} // namespace obs
} // namespace iracc
