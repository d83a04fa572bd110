#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "bench.hh"
#include "genomics/io.hh"

namespace perfbench {

uint64_t
fnv1a(const char *p, size_t n, uint64_t h)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
digestFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open output '" + path + "'");
    std::vector<char> buf(1 << 20);
    uint64_t h = fnv1a(nullptr, 0);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        h = fnv1a(buf.data(), static_cast<size_t>(in.gcount()), h);
    }
    return h;
}

namespace {

/** An output stream buffer that hashes instead of storing. */
class HashBuf : public std::streambuf
{
  public:
    uint64_t hash = fnv1a(nullptr, 0);

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c != traits_type::eof()) {
            const char ch = traits_type::to_char_type(c);
            hash = fnv1a(&ch, 1, hash);
        }
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        hash = fnv1a(s, static_cast<size_t>(n), hash);
        return n;
    }
};

} // namespace

uint64_t
digestReads(const ReferenceGenome &ref, const std::vector<Read> &reads)
{
    HashBuf buf;
    std::ostream os(&buf);
    iracc::writeSamLite(os, ref, reads);
    os.flush();
    return buf.hash;
}

void
corruptFile(const std::string &path)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot corrupt '" + path + "'");
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char c = 0;
    f.get(c);
    f.seekp(mid);
    f.put(static_cast<char>(c ^ 0x20));
}

uint64_t
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

ReferenceGenome
loadFasta(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    return iracc::readFasta(in);
}

std::vector<Read>
loadSamLite(const std::string &path, const ReferenceGenome &ref)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open '" + path + "'");
    return iracc::readSamLite(in, ref);
}

std::map<std::string, Expected>
readOracle(const std::string &dir)
{
    std::ifstream in(dir + "/oracle.txt");
    if (!in)
        throw std::runtime_error("no oracle.txt in '" + dir + "'");
    std::map<std::string, Expected> out;
    std::string name;
    Expected e;
    while (in >> name >> std::hex >> e.digest >> std::dec >> e.targets >>
           e.readsRealigned >> e.reads)
        out[name] = e;
    return out;
}

std::string
Modeled::key() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%a %llu %llu %llu", fpgaSeconds,
                  static_cast<unsigned long long>(fpgaCycles),
                  static_cast<unsigned long long>(whdComparisons),
                  static_cast<unsigned long long>(targets));
    return buf;
}

Modeled
modeledOf(const iracc::RealignJobResult &job)
{
    std::vector<const iracc::ContigJobResult *> order;
    for (const iracc::ContigJobResult &c : job.contigs)
        order.push_back(&c);
    std::sort(order.begin(), order.end(),
              [](auto *a, auto *b) { return a->contig < b->contig; });
    Modeled m;
    for (const iracc::ContigJobResult *c : order) {
        m.fpgaSeconds += c->run.fpgaSeconds;
        m.fpgaCycles += c->run.fleet.busyCycles();
        m.whdComparisons += c->run.stats.whd.comparisons;
        m.targets += c->run.stats.targets;
    }
    return m;
}

bool
ledgerMatches(const Options &opt, const std::string &kind,
              const Modeled &m)
{
    // The entry is keyed by this build of the program and by the
    // inputs (the oracle record identifies them), so a rebuilt
    // program or another seed starts a fresh entry.
    static const uint64_t build = digestFile("/proc/self/exe");
    char id[40];
    std::snprintf(id, sizeof(id), "%016llx",
                  static_cast<unsigned long long>(
                      build ^ digestFile(opt.dir + "/oracle.txt")));
    const std::string path = opt.ledgerDir + "/" + kind + "-" + id + ".txt";
    const std::string key = m.key();
    std::ifstream in(path);
    std::string have;
    if (in && std::getline(in, have))
        return have == key;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out)
            throw std::runtime_error("cannot write ledger '" + tmp + "'");
        out << key << "\n";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("cannot write ledger '" + path + "'");
    return true;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
resetPeakRss()
{
    // "5" resets VmHWM to the current RSS (Linux >= 4.0); where the
    // file is not writable the peak stays process-wide.
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

namespace {

double
cpuClock(clockid_t id)
{
    timespec t{};
    if (clock_gettime(id, &t) != 0)
        throw std::runtime_error("clock_gettime failed");
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
}

} // namespace

double
processCpuNow()
{
    return cpuClock(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuNow()
{
    return cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

int
Tracer::open(const std::string &name, int parent, int pass)
{
    if (!enabled)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.pass = pass;
    s.thread = static_cast<int>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000);
    s.start = now();
    std::lock_guard<std::mutex> lock(mu);
    recorded.push_back(std::move(s));
    return static_cast<int>(recorded.size() - 1);
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu);
    recorded[static_cast<size_t>(id)].end = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    return recorded;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\": [\n";
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                      s.name.c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, s.pass, s.thread, i,
                      s.parent, i + 1 < all.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

double
spanTotal(const std::vector<Span> &spans, const std::string &name)
{
    double t = 0.0;
    for (const Span &s : spans) {
        if (s.name == name)
            t += s.end - s.start;
    }
    return t;
}

double
spanMax(const std::vector<Span> &spans, const std::string &name)
{
    double t = 0.0;
    for (const Span &s : spans) {
        if (s.name == name)
            t = std::max(t, s.end - s.start);
    }
    return t;
}

double
childTotal(const std::vector<Span> &spans, int id)
{
    double t = 0.0;
    for (const Span &s : spans) {
        if (s.parent == id)
            t += s.end - s.start;
    }
    return t;
}

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
    Kind kind;
};

void
addCatalogue(Report &rep, const std::vector<MetricDef> &defs,
             const std::map<std::string, double> &values)
{
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        rep.add(d.name, it == values.end() ? 0.0 : it->second, d.unit,
                d.kind);
    }
}

} // namespace

void
addEndToEnd(Report &rep, const std::map<std::string, double> &values)
{
    // CPU seconds, not wall time: see processCpuNow().  The wall
    // figures are the wall.* metrics of the traced run.
    static const std::vector<MetricDef> kCatalogue = {
        {"setup_s", "s", Kind::Host},
        {"cpu_us_per_read", "us", Kind::Host},
        {"peak_rss_mb", "MB", Kind::Host},
    };
    addCatalogue(rep, kCatalogue, values);
}

void
addPerLayer(Report &rep, const std::map<std::string, double> &values)
{
    // Stage and layer times are busy seconds per pass, summed over
    // the worker threads that ran them; counts are per pass (per job
    // on server_tenants).
    static const std::vector<MetricDef> kCatalogue = {
        // End-to-end wall time, from the untraced half of the run.
        {"wall.reads_per_s", "reads/s", Kind::Host},
        {"wall.pass_p50_s", "s", Kind::Host},
        {"wall.job_p50_s", "s", Kind::Host},
        {"genomics.ingest_s", "s", Kind::Host},
        {"genomics.ingest_mb_per_s", "MB/s", Kind::Host},
        {"genomics.reads_parsed", "count", Kind::Count},
        {"genomics.batches", "count", Kind::Count},
        {"genomics.write_s", "s", Kind::Host},
        {"genomics.write_mb_per_s", "MB/s", Kind::Host},
        {"genomics.bytes_written", "bytes", Kind::Count},
        {"core.realign_s", "s", Kind::Host},
        {"core.contig_max_s", "s", Kind::Host},
        {"core.barrier_wait_s", "s", Kind::Host},
        {"realign.plan_s", "s", Kind::Host},
        {"realign.targets", "count", Kind::Count},
        {"realign.reads_considered", "count", Kind::Count},
        {"realign.prepare_s", "s", Kind::Host},
        {"realign.consensuses", "count", Kind::Count},
        {"realign.marshalled_bytes", "bytes", Kind::Count},
        {"realign.apply_s", "s", Kind::Host},
        {"realign.reads_realigned", "count", Kind::Count},
        {"realign.kernel_s", "s", Kind::Host},
        {"realign.whd_comparisons", "count", Kind::Count},
        {"realign.offsets_pruned_frac", "frac", Kind::Count},
        {"realign.comparisons_per_s", "1/s", Kind::Host},
        {"host.execute_s", "s", Kind::Host},
        // Modeled cycles per host second: a machine-bound ratio.
        {"host.sim_cycles_per_s", "cycles/s", Kind::Host},
        {"host.fpga_s", "s", Kind::Modeled},
        {"host.fpga_cycles", "cycles", Kind::Modeled},
        {"host.dma_frac", "frac", Kind::Modeled},
        {"host.unit_util", "frac", Kind::Modeled},
        {"host.target_latency_p50_cycles", "cycles", Kind::Modeled},
        {"host.target_latency_p99_cycles", "cycles", Kind::Modeled},
        {"server.submit_rtt_s", "s", Kind::Host},
        {"server.queue_wait_s", "s", Kind::Host},
        {"server.job_wall_s", "s", Kind::Host},
        {"server.jobs_per_s", "jobs/s", Kind::Host},
        {"server.job_p90_s", "s", Kind::Host},
        {"server.backpressure_rejects", "count", Kind::Count},
        {"trace.overhead_frac", "frac", Kind::Host},
        {"trace.unattributed_frac", "frac", Kind::Host},
    };
    addCatalogue(rep, kCatalogue, values);
}

void
Report::add(const std::string &name, double value,
            const std::string &unit, Kind kind)
{
    entries.push_back({name, value, unit, kind});
}

void
Report::op(bool failed, const std::string &why)
{
    ++nAttempted;
    if (failed) {
        ++nFailed;
        std::fprintf(stderr, "perfbench: operation %llu failed: %s\n",
                     static_cast<unsigned long long>(nAttempted),
                     why.c_str());
    }
}

void
Report::print(const Options &opt) const
{
    static const char *kKind[] = {"host", "modeled", "count"};
    std::printf("workload %s, seed %llu, %s run\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    std::printf("host = measured on the host that ran it (CPU seconds for "
                "setup_s and cpu_us_per_read, wall-clock otherwise); "
                "modeled = cycle-model output of the simulated FPGA, which is "
                "unvalidated against hardware (no error figure exists); "
                "count = deterministic work count\n");
    for (const Entry &e : entries) {
        std::printf("  %-36s %16.6f %-8s %s\n", e.name.c_str(), e.value,
                    e.unit.c_str(), kKind[static_cast<int>(e.kind)]);
    }
    std::printf("  %-36s %16.6f %-8s %s\n", "failed_frac",
                nAttempted ? static_cast<double>(nFailed) /
                                 static_cast<double>(nAttempted)
                           : 0.0,
                "frac", "count");

    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (nFailed == 0 && nAttempted > 0 ? "true"
                                                              : "false")
       << ", \"attempted\": " << nAttempted << ", \"failed\": " << nFailed
       << ", \"metrics\": {";
    for (size_t i = 0; i < entries.size(); ++i) {
        js << (i ? ", " : "") << "\"" << entries[i].name
           << "\": {\"value\": " << entries[i].value << ", \"unit\": \""
           << entries[i].unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
