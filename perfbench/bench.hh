/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: options, the
 * output digest, the oracle record, the cross-run ledger of modeled
 * counters, the span recorder, and the result report.
 *
 * The benchmark only calls the program's public API (genomics, core,
 * realign, host, server) and only on input files it synthesized
 * itself; every layer is timed from outside, around its calls.
 */

#ifndef IRACC_PERFBENCH_BENCH_HH
#define IRACC_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "genomics/read.hh"
#include "genomics/reference.hh"

namespace perfbench {

using iracc::Read;
using iracc::ReferenceGenome;

/** server_tenants dataset variants ("small<i>", "large<i>"). */
constexpr uint64_t kSmallVariants = 4;
constexpr uint64_t kLargeVariants = 2;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Directory holding the synthesized inputs and oracle.txt. */
    std::string dir;

    /** Directory of the cross-run modeled-counter ledger. */
    std::string ledgerDir;

    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string traceOut;

    /** Shrink every dataset to a few contigs (self-test). */
    bool tiny = false;

    /** Flip one output byte of the first operation (self-test). */
    bool corrupt = false;
};

/** What the oracle produced on one dataset. */
struct Expected
{
    uint64_t digest = 0;
    uint64_t targets = 0;
    uint64_t readsRealigned = 0;
    uint64_t reads = 0;
};

/** FNV-1a 64 over @p n bytes, continuing from @p h. */
uint64_t fnv1a(const char *p, size_t n,
               uint64_t h = 0xcbf29ce484222325ull);

/** Digest of a file's bytes. */
uint64_t digestFile(const std::string &path);

/** Digest of the SAM-lite serialization of @p reads. */
uint64_t digestReads(const ReferenceGenome &ref,
                     const std::vector<Read> &reads);

/** Flip one byte in the middle of @p path (self-test corruption). */
void corruptFile(const std::string &path);

uint64_t fileBytes(const std::string &path);

ReferenceGenome loadFasta(const std::string &path);
std::vector<Read> loadSamLite(const std::string &path,
                              const ReferenceGenome &ref);

/** Parse <dir>/oracle.txt: one "name digest targets realigned
 *  reads" line per dataset. */
std::map<std::string, Expected> readOracle(const std::string &dir);

/**
 * The modeled quantities that must repeat exactly across passes,
 * runs, and the in-memory vs. streamed paths.  Summed per contig in
 * ascending contig order so the floating-point sum does not depend
 * on how a run grouped its contigs.
 */
struct Modeled
{
    double fpgaSeconds = 0.0;
    uint64_t fpgaCycles = 0;
    uint64_t whdComparisons = 0;
    uint64_t targets = 0;

    bool operator==(const Modeled &) const = default;

    /** Exact text form (hex float) for the ledger. */
    std::string key() const;
};

Modeled modeledOf(const iracc::RealignJobResult &job);

/**
 * Compare @p m against the ledger entry of (this build, these
 * inputs, @p kind), creating the entry on first sight, so modeled
 * counters must repeat across runs as well as across passes.
 * @return true on a match.
 */
bool ledgerMatches(const Options &opt, const std::string &kind,
                   const Modeled &m);

/** Linear-interpolated percentile (q in [0, 1]); 0 for no data. */
double percentile(std::vector<double> v, double q);

/** High-water resident set size of this process, MB. */
double peakRssMb();

/** Restart the high-water mark from the current resident size. */
void resetPeakRss();

/** Seconds on the steady clock since process start. */
double now();

/**
 * CPU seconds (user + system) used so far by every thread of this
 * process, or by the calling thread alone.  Unlike wall time they
 * leave out the time a shared host's hypervisor keeps the vCPUs
 * from running (steal), which moves wall time by tens of percent
 * within minutes.
 */
double processCpuNow();
double threadCpuNow();

/** One recorded span. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int pass = 0;
    int thread = 0;
};

/**
 * In-memory span recorder, written out once at exit.  Disabled
 * recorders hand out id -1 and record nothing, so untraced passes
 * pay only a branch.  Thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : enabled(on) {}

    bool on() const { return enabled; }

    int open(const std::string &name, int parent, int pass);
    void close(int id);

    /** Snapshot of every span (call after all threads joined). */
    std::vector<Span> spans() const;

    /** Chrome trace-event JSON; @return false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled;
    mutable std::mutex mu;
    std::vector<Span> recorded;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int parent, int pass)
        : tracer(t), sid(t.open(name, parent, pass))
    {
    }
    ~Scope() { tracer.close(sid); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return sid; }

  private:
    Tracer &tracer;
    int sid;
};

/** Sum of the durations of spans named @p name. */
double spanTotal(const std::vector<Span> &spans,
                 const std::string &name);

/** Largest duration of spans named @p name. */
double spanMax(const std::vector<Span> &spans, const std::string &name);

/** Sum of the durations of the direct children of span @p id. */
double childTotal(const std::vector<Span> &spans, int id);

/** Metric classes, printed beside every value. */
enum class Kind
{
    Host,    ///< measured host wall-clock (machine-bound)
    Modeled, ///< cycle-model output, deterministic in the seed
    Count,   ///< work count, deterministic in the seed
};

/** The run's result: metrics plus operation accounting. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, Kind kind);

    /** Record one operation (pass or job) and whether it failed. */
    void op(bool failed, const std::string &why);

    /** Human table, then the one-line JSON result (last line). */
    void print(const Options &opt) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        Kind kind;
    };
    std::vector<Entry> entries;
    uint64_t nAttempted = 0;
    uint64_t nFailed = 0;
};

/**
 * Add every metric of the end-to-end (untraced run) or per-layer
 * (traced run) catalogue, in catalogue order, taking values from
 * @p values; a per-layer metric of a layer the workload does not
 * exercise, or traces only from outside, reads 0.
 */
void addEndToEnd(Report &rep, const std::map<std::string, double> &values);
void addPerLayer(Report &rep, const std::map<std::string, double> &values);

/** Workload entry points (inprocess.cc, server_tenants.cc). */
void runInProcess(const Options &opt, Report &rep);
void runServerTenants(const Options &opt, Report &rep);

} // namespace perfbench

#endif // IRACC_PERFBENCH_BENCH_HH
