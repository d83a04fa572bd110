#pragma once

/**
 * Always-on flight recorder.
 *
 * A process-wide set of fixed-size per-thread ring buffers of
 * structured binary events.  Emitting an event is a handful of
 * relaxed atomic stores into the calling thread's own ring --
 * no locks, no allocation, no formatting -- so the recorder stays
 * on in production and in every benchmark.  Rings wrap: the
 * recorder keeps the most recent kRingSlots events per thread,
 * which is exactly what a post-mortem wants.  A ring outlives its
 * thread: on thread exit it goes back to the recorder, and the next
 * new thread reuses it.
 *
 * Determinism contract (docs/OBSERVABILITY.md): every emit site
 * stamps the event with the *virtual* (cycle-domain) time and the
 * logical (contig, card, sequence) coordinates from the installed
 * FlightContext.  One contig's pipeline runs serially on a single
 * worker thread, so its sequence counter is deterministic no
 * matter which thread runs it.  The canonical snapshot orders by
 * (vtime, contig, card, seq) -- never by arrival -- making the
 * merged log a pure function of (workload, seed, fault plan,
 * cards, stealing), byte-identical across thread counts and
 * wall-clock jitter.  Wall time is carried per event for humans
 * but excluded from the canonical rendering.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace iracc {
namespace obs {

/** Lower value = more severe.  kDebug is still recorded; severity
 *  only gates the optional live stderr tail. */
enum class FrSeverity : uint8_t {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

enum class FrCategory : uint8_t {
    Job = 0,
    Stage = 1,
    Sched = 2,
    Fleet = 3,
    Harden = 4,
    Fault = 5,
};

/** Event codes.  The numeric value is part of the binary event;
 *  names below are what the renderers print. */
enum class FrCode : uint16_t {
    // Job lifecycle (category Job).
    JobStart = 1,     // a0=contigs a1=reads a2=cards a3=stealing
    JobDone = 2,      // a0=status a1=degraded a2=failed
    ContigStart = 3,  // a0=reads
    ContigDone = 4,   // a0=status a1=targets a2=busyCycles
    Barrier = 5,      // a0=contigs
    ContigSkipped = 6, // a0=reads (cancellation skipped the contig)
    JobCancelled = 7,  // a0=skipped contigs a1=total contigs
    // Stage transitions (category Stage).
    StagePlan = 10,    // a0=targets planned
    StagePrepare = 11, // a0=targets
    StageExecute = 12, // a0=targets a1=max latency cycles
    StageApply = 13,   // a0=realigned
    // Host scheduler (category Sched).
    ShardPlace = 20, // a0=shard a1=targets; card=placed card
    ShardSteal = 21, // a0=shard a1=victim card; card=thief
    Dispatch = 22,   // a0=targets; card=card
    // Card fleet (category Fleet).
    FleetLease = 30,   // a0=cards a1=units/card
    FleetMerge = 31,   // a0=targets a1=steals; card=card
    FleetRelease = 32, // a0=cards
    // Hardened executor (category Harden).
    CrcMismatch = 40,   // a0=target a1=unit a2=0 in / 1 out
    WatchdogTrip = 41,  // a0=target a1=unit a2=waited cycles
    Quarantine = 42,    // a0=unit a1=strikes
    Retry = 43,         // a0=target a1=attempt
    Migrate = 44,       // a0=targets a1=from card; card=to card
    Fallback = 45,      // a0=target a1=attempts
    TargetFailed = 46,  // a0=target a1=attempts
    // Fault injection (category Fault).
    FaultInjected = 50, // a0=spec idx a1=kind a2=occurrence
                        // a3=interned spec text id
};

/** Decoded event, as returned by snapshot(). */
struct FrEvent {
    uint64_t vtime = 0;     // cycle-domain timestamp
    uint64_t wallNanos = 0; // wall clock, excluded from canon
    int32_t contig = -1;
    int32_t card = -1;
    uint32_t seq = 0;
    FrSeverity sev = FrSeverity::Info;
    FrCategory cat = FrCategory::Job;
    uint16_t code = 0;
    uint64_t args[4] = {0, 0, 0, 0};
};

const char *frSeverityName(FrSeverity s);
const char *frCategoryName(FrCategory c);
const char *frCodeName(uint16_t code);

/** Canonical ordering: (vtime, contig, card, seq), with the code
 *  and args as a stabilising tail for context-free events. */
bool frEventBefore(const FrEvent &a, const FrEvent &b);

class FlightRecorder {
  public:
    static constexpr uint32_t kRingSlots = 4096;

    static FlightRecorder &instance();

    /**
     * Record one event into the calling thread's ring.  contig
     * and seq come from the installed FlightContext (contig -1,
     * thread-local fallback counter when none).  Lock-free;
     * relaxed atomics only.
     */
    void emit(FrSeverity sev, FrCategory cat, FrCode code,
              uint64_t vtime, int32_t card = -1, uint64_t a0 = 0,
              uint64_t a1 = 0, uint64_t a2 = 0, uint64_t a3 = 0);

    /**
     * Decode every ring and return the canonical, deterministic
     * merge (see frEventBefore).  Intended for post-mortems and
     * tests, after the run being examined has quiesced; a
     * concurrent writer can tear at most the event it is writing.
     */
    std::vector<FrEvent> snapshot() const;

    /** Reset all rings (tests). */
    void clear();

    /**
     * Rings ever allocated (tests).  A thread's ring returns to a
     * free list when the thread exits, so this is bounded by the
     * most threads that emitted at the same time.
     */
    size_t ringCount() const;

    /**
     * Live tail: when enabled, every emit at most this severe is
     * also formatted to stderr.  -1 (default) disables the tail;
     * recording itself is unaffected.
     */
    void setLogLevel(int level);
    int logLevel() const;

    /** Small string table: intern returns a stable non-zero id
     *  for the text; events carry ids, renderers resolve them. */
    uint32_t intern(const std::string &text);
    std::string internedString(uint32_t id) const;

    /** Canonical text line (no wall clock, no string ids left
     *  unresolved) -- the unit of the post-mortem event log. */
    std::string formatText(const FrEvent &e) const;
    /** One JSON object per event, same determinism contract. */
    std::string formatJson(const FrEvent &e) const;

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

  private:
    FlightRecorder();
    ~FlightRecorder();

    struct Impl;
    Impl *impl_;
};

/**
 * RAII logical coordinates for the current thread.  Installing a
 * context binds subsequent emits to a contig and gives them a
 * fresh per-context sequence counter; contexts nest and restore
 * on destruction.  Install one per contig pipeline (worker
 * threads) and one for the driver (contig -1).
 */
class FlightContext {
  public:
    explicit FlightContext(int32_t contig);
    ~FlightContext();

    static int32_t currentContig();
    static uint32_t nextSeq();

    FlightContext(const FlightContext &) = delete;
    FlightContext &operator=(const FlightContext &) = delete;

  private:
    FlightContext *prev_;
    int32_t contig_;
    uint32_t seq_ = 0;
};

/** Shorthand used at emit sites. */
inline void
frEmit(FrSeverity sev, FrCategory cat, FrCode code, uint64_t vtime,
       int32_t card = -1, uint64_t a0 = 0, uint64_t a1 = 0,
       uint64_t a2 = 0, uint64_t a3 = 0)
{
    FlightRecorder::instance().emit(sev, cat, code, vtime, card,
                                    a0, a1, a2, a3);
}

} // namespace obs
} // namespace iracc
