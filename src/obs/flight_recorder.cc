#include "obs/flight_recorder.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace iracc {
namespace obs {

namespace {

constexpr uint32_t kWordsPerSlot = 8;

/** Per-thread single-producer ring.  Every word is a relaxed
 *  atomic so concurrent snapshot readers are race-free by
 *  construction (they may observe a torn *event*, never torn
 *  memory).  pos counts events ever written; slot = pos % N. */
struct Ring {
    std::unique_ptr<std::atomic<uint64_t>[]> words;
    std::atomic<uint64_t> pos{0};

    Ring()
        : words(new std::atomic<uint64_t>[FlightRecorder::
                                              kRingSlots *
                                          kWordsPerSlot]())
    {
    }
};

uint64_t
wallNanosNow()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

thread_local uint32_t tls_fallback_seq = 0;

} // anonymous namespace

struct FlightRecorder::Impl {
    mutable std::mutex ringsMutex;
    std::vector<std::unique_ptr<Ring>> rings;
    /** Rings whose thread exited, reused by the next new thread. */
    std::vector<Ring *> freeRings;

    mutable std::mutex stringsMutex;
    std::vector<std::string> strings;
    std::unordered_map<std::string, uint32_t> stringIds;

    std::atomic<int> logLevel{-1};
    std::mutex tailMutex;

    Ring *acquireRing()
    {
        std::lock_guard<std::mutex> lock(ringsMutex);
        if (!freeRings.empty()) {
            Ring *ring = freeRings.back();
            freeRings.pop_back();
            return ring;
        }
        rings.push_back(std::make_unique<Ring>());
        return rings.back().get();
    }

    void releaseRing(Ring *ring)
    {
        std::lock_guard<std::mutex> lock(ringsMutex);
        freeRings.push_back(ring);
    }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {}
FlightRecorder::~FlightRecorder() { delete impl_; }

FlightRecorder &
FlightRecorder::instance()
{
    // Never destroyed: threads that outlive static destruction may
    // still emit or hand back their ring.
    static FlightRecorder *recorder = new FlightRecorder;
    return *recorder;
}

void
FlightRecorder::emit(FrSeverity sev, FrCategory cat, FrCode code,
                     uint64_t vtime, int32_t card, uint64_t a0,
                     uint64_t a1, uint64_t a2, uint64_t a3)
{
    // A thread leases a ring on its first emit and hands it back
    // when it exits; the next new thread continues writing where it
    // stopped, so the old events stay readable until they wrap.
    // Rings are owned by the recorder and never erased, so the
    // cached pointer stays valid after clear() and across contexts.
    struct RingLease {
        Impl *owner = nullptr;
        Ring *ring = nullptr;
        ~RingLease()
        {
            if (ring)
                owner->releaseRing(ring);
        }
    };
    static thread_local RingLease lease;
    if (!lease.ring) {
        lease.owner = impl_;
        lease.ring = impl_->acquireRing();
    }
    Ring *ring = lease.ring;

    int32_t contig = FlightContext::currentContig();
    uint32_t seq = FlightContext::nextSeq();

    uint64_t p = ring->pos.load(std::memory_order_relaxed);
    std::atomic<uint64_t> *w =
        &ring->words[(p % kRingSlots) * kWordsPerSlot];
    w[0].store(vtime, std::memory_order_relaxed);
    w[1].store(wallNanosNow(), std::memory_order_relaxed);
    w[2].store((static_cast<uint64_t>(
                    static_cast<uint32_t>(contig))
                << 32) |
                   static_cast<uint32_t>(card),
               std::memory_order_relaxed);
    w[3].store((static_cast<uint64_t>(seq) << 32) |
                   (static_cast<uint64_t>(sev) << 24) |
                   (static_cast<uint64_t>(cat) << 16) |
                   static_cast<uint64_t>(code),
               std::memory_order_relaxed);
    w[4].store(a0, std::memory_order_relaxed);
    w[5].store(a1, std::memory_order_relaxed);
    w[6].store(a2, std::memory_order_relaxed);
    w[7].store(a3, std::memory_order_relaxed);
    ring->pos.store(p + 1, std::memory_order_relaxed);

    int level = impl_->logLevel.load(std::memory_order_relaxed);
    if (level >= static_cast<int>(sev)) {
        FrEvent e;
        e.vtime = vtime;
        e.contig = contig;
        e.card = card;
        e.seq = seq;
        e.sev = sev;
        e.cat = cat;
        e.code = static_cast<uint16_t>(code);
        e.args[0] = a0;
        e.args[1] = a1;
        e.args[2] = a2;
        e.args[3] = a3;
        std::string line = formatText(e);
        std::lock_guard<std::mutex> lock(impl_->tailMutex);
        std::fprintf(stderr, "%s\n", line.c_str());
    }
}

std::vector<FrEvent>
FlightRecorder::snapshot() const
{
    std::vector<FrEvent> out;
    std::lock_guard<std::mutex> lock(impl_->ringsMutex);
    for (const auto &ring : impl_->rings) {
        uint64_t p = ring->pos.load(std::memory_order_relaxed);
        uint64_t n = std::min<uint64_t>(p, kRingSlots);
        for (uint64_t i = p - n; i < p; ++i) {
            const std::atomic<uint64_t> *w =
                &ring->words[(i % kRingSlots) * kWordsPerSlot];
            FrEvent e;
            e.vtime = w[0].load(std::memory_order_relaxed);
            e.wallNanos = w[1].load(std::memory_order_relaxed);
            uint64_t w2 = w[2].load(std::memory_order_relaxed);
            e.contig = static_cast<int32_t>(
                static_cast<uint32_t>(w2 >> 32));
            e.card = static_cast<int32_t>(
                static_cast<uint32_t>(w2));
            uint64_t w3 = w[3].load(std::memory_order_relaxed);
            e.seq = static_cast<uint32_t>(w3 >> 32);
            e.sev = static_cast<FrSeverity>((w3 >> 24) & 0xff);
            e.cat = static_cast<FrCategory>((w3 >> 16) & 0xff);
            e.code = static_cast<uint16_t>(w3 & 0xffff);
            for (int a = 0; a < 4; ++a)
                e.args[a] =
                    w[4 + a].load(std::memory_order_relaxed);
            out.push_back(e);
        }
    }
    std::sort(out.begin(), out.end(), frEventBefore);
    return out;
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(impl_->ringsMutex);
    for (auto &ring : impl_->rings)
        ring->pos.store(0, std::memory_order_relaxed);
}

size_t
FlightRecorder::ringCount() const
{
    std::lock_guard<std::mutex> lock(impl_->ringsMutex);
    return impl_->rings.size();
}

void
FlightRecorder::setLogLevel(int level)
{
    impl_->logLevel.store(level, std::memory_order_relaxed);
}

int
FlightRecorder::logLevel() const
{
    return impl_->logLevel.load(std::memory_order_relaxed);
}

uint32_t
FlightRecorder::intern(const std::string &text)
{
    std::lock_guard<std::mutex> lock(impl_->stringsMutex);
    auto it = impl_->stringIds.find(text);
    if (it != impl_->stringIds.end())
        return it->second;
    impl_->strings.push_back(text);
    uint32_t id = static_cast<uint32_t>(impl_->strings.size());
    impl_->stringIds.emplace(text, id);
    return id;
}

std::string
FlightRecorder::internedString(uint32_t id) const
{
    std::lock_guard<std::mutex> lock(impl_->stringsMutex);
    if (id == 0 || id > impl_->strings.size())
        return "";
    return impl_->strings[id - 1];
}

namespace {

const char *
runStatusName(uint64_t s)
{
    switch (s) {
    case 0:
        return "ok";
    case 1:
        return "degraded";
    case 2:
        return "failed";
    }
    return "?";
}

std::string
u64s(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace

const char *
frSeverityName(FrSeverity s)
{
    switch (s) {
    case FrSeverity::Error:
        return "ERROR";
    case FrSeverity::Warn:
        return "WARN";
    case FrSeverity::Info:
        return "INFO";
    case FrSeverity::Debug:
        return "DEBUG";
    }
    return "?";
}

const char *
frCategoryName(FrCategory c)
{
    switch (c) {
    case FrCategory::Job:
        return "job";
    case FrCategory::Stage:
        return "stage";
    case FrCategory::Sched:
        return "sched";
    case FrCategory::Fleet:
        return "fleet";
    case FrCategory::Harden:
        return "harden";
    case FrCategory::Fault:
        return "fault";
    }
    return "?";
}

const char *
frCodeName(uint16_t code)
{
    switch (static_cast<FrCode>(code)) {
    case FrCode::JobStart:
        return "job_start";
    case FrCode::JobDone:
        return "job_done";
    case FrCode::ContigStart:
        return "contig_start";
    case FrCode::ContigDone:
        return "contig_done";
    case FrCode::Barrier:
        return "barrier";
    case FrCode::ContigSkipped:
        return "contig_skipped";
    case FrCode::JobCancelled:
        return "job_cancelled";
    case FrCode::StagePlan:
        return "plan";
    case FrCode::StagePrepare:
        return "prepare";
    case FrCode::StageExecute:
        return "execute";
    case FrCode::StageApply:
        return "apply";
    case FrCode::ShardPlace:
        return "shard_place";
    case FrCode::ShardSteal:
        return "shard_steal";
    case FrCode::Dispatch:
        return "dispatch";
    case FrCode::FleetLease:
        return "lease";
    case FrCode::FleetMerge:
        return "merge";
    case FrCode::FleetRelease:
        return "release";
    case FrCode::CrcMismatch:
        return "crc_mismatch";
    case FrCode::WatchdogTrip:
        return "watchdog_trip";
    case FrCode::Quarantine:
        return "quarantine";
    case FrCode::Retry:
        return "retry";
    case FrCode::Migrate:
        return "migrate";
    case FrCode::Fallback:
        return "fallback";
    case FrCode::TargetFailed:
        return "target_failed";
    case FrCode::FaultInjected:
        return "injected";
    }
    return "unknown";
}

bool
frEventBefore(const FrEvent &a, const FrEvent &b)
{
    if (a.vtime != b.vtime)
        return a.vtime < b.vtime;
    if (a.contig != b.contig)
        return a.contig < b.contig;
    if (a.card != b.card)
        return a.card < b.card;
    if (a.seq != b.seq)
        return a.seq < b.seq;
    if (a.code != b.code)
        return a.code < b.code;
    for (int i = 0; i < 4; ++i)
        if (a.args[i] != b.args[i])
            return a.args[i] < b.args[i];
    return false;
}

std::string
FlightRecorder::formatText(const FrEvent &e) const
{
    char head[96];
    std::snprintf(head, sizeof(head),
                  "@%012llu c%-3d k%-2d #%05u %-5s %s.%s",
                  static_cast<unsigned long long>(e.vtime),
                  e.contig, e.card, e.seq, frSeverityName(e.sev),
                  frCategoryName(e.cat), frCodeName(e.code));
    std::string out = head;
    const uint64_t *a = e.args;
    switch (static_cast<FrCode>(e.code)) {
    case FrCode::JobStart:
        out += " contigs=" + u64s(a[0]) + " reads=" + u64s(a[1]) +
               " cards=" + u64s(a[2]) + " stealing=" + u64s(a[3]);
        break;
    case FrCode::JobDone:
        out += std::string(" status=") + runStatusName(a[0]) +
               " degraded=" + u64s(a[1]) +
               " failed=" + u64s(a[2]);
        break;
    case FrCode::ContigStart:
        out += " reads=" + u64s(a[0]);
        break;
    case FrCode::ContigDone:
        out += std::string(" status=") + runStatusName(a[0]) +
               " targets=" + u64s(a[1]) +
               " busy=" + u64s(a[2]);
        break;
    case FrCode::Barrier:
        out += " contigs=" + u64s(a[0]);
        break;
    case FrCode::ContigSkipped:
        out += " reads=" + u64s(a[0]);
        break;
    case FrCode::JobCancelled:
        out += " skipped=" + u64s(a[0]) +
               " contigs=" + u64s(a[1]);
        break;
    case FrCode::StagePlan:
        out += " targets=" + u64s(a[0]);
        break;
    case FrCode::StagePrepare:
        out += " targets=" + u64s(a[0]);
        break;
    case FrCode::StageExecute:
        out += " targets=" + u64s(a[0]) +
               " maxlat=" + u64s(a[1]);
        break;
    case FrCode::StageApply:
        out += " realigned=" + u64s(a[0]);
        break;
    case FrCode::ShardPlace:
        out += " shard=" + u64s(a[0]) + " targets=" + u64s(a[1]);
        break;
    case FrCode::ShardSteal:
        out += " shard=" + u64s(a[0]) + " from=" + u64s(a[1]);
        break;
    case FrCode::Dispatch:
        out += " targets=" + u64s(a[0]);
        break;
    case FrCode::FleetLease:
        out += " cards=" + u64s(a[0]) + " units=" + u64s(a[1]);
        break;
    case FrCode::FleetMerge:
        out += " targets=" + u64s(a[0]) + " steals=" + u64s(a[1]);
        break;
    case FrCode::FleetRelease:
        out += " cards=" + u64s(a[0]);
        break;
    case FrCode::CrcMismatch:
        out += " target=" + u64s(a[0]) + " unit=" + u64s(a[1]) +
               " side=" + (a[2] ? "output" : "input");
        break;
    case FrCode::WatchdogTrip:
        out += " target=" + u64s(a[0]) + " unit=" + u64s(a[1]) +
               " waited=" + u64s(a[2]);
        break;
    case FrCode::Quarantine:
        out += " unit=" + u64s(a[0]) + " strikes=" + u64s(a[1]);
        break;
    case FrCode::Retry:
        out += " target=" + u64s(a[0]) + " attempt=" + u64s(a[1]);
        break;
    case FrCode::Migrate:
        out += " targets=" + u64s(a[0]) + " from=" + u64s(a[1]);
        break;
    case FrCode::Fallback:
        out +=
            " target=" + u64s(a[0]) + " attempts=" + u64s(a[1]);
        break;
    case FrCode::TargetFailed:
        out +=
            " target=" + u64s(a[0]) + " attempts=" + u64s(a[1]);
        break;
    case FrCode::FaultInjected:
        out += " spec=" + u64s(a[0]) +
               " occurrence=" + u64s(a[2]) + " '" +
               internedString(static_cast<uint32_t>(a[3])) + "'";
        break;
    default:
        out += " a0=" + u64s(a[0]) + " a1=" + u64s(a[1]) +
               " a2=" + u64s(a[2]) + " a3=" + u64s(a[3]);
        break;
    }
    return out;
}

std::string
FlightRecorder::formatJson(const FrEvent &e) const
{
    std::string out = "{\"vtime\":" + u64s(e.vtime) +
                      ",\"contig\":" + std::to_string(e.contig) +
                      ",\"card\":" + std::to_string(e.card) +
                      ",\"seq\":" + u64s(e.seq);
    out += std::string(",\"severity\":\"") +
           frSeverityName(e.sev) + "\"";
    out += std::string(",\"category\":\"") +
           frCategoryName(e.cat) + "\"";
    out += std::string(",\"code\":\"") + frCodeName(e.code) + "\"";
    out += ",\"args\":[" + u64s(e.args[0]) + "," +
           u64s(e.args[1]) + "," + u64s(e.args[2]) + "," +
           u64s(e.args[3]) + "]";
    if (static_cast<FrCode>(e.code) == FrCode::FaultInjected) {
        std::string spec = internedString(
            static_cast<uint32_t>(e.args[3]));
        std::string escaped;
        for (char c : spec) {
            if (c == '"' || c == '\\')
                escaped += '\\';
            escaped += c;
        }
        out += ",\"spec\":\"" + escaped + "\"";
    }
    out += "}";
    return out;
}

namespace {
thread_local FlightContext *tls_context = nullptr;
} // anonymous namespace

FlightContext::FlightContext(int32_t contig)
    : prev_(tls_context), contig_(contig)
{
    tls_context = this;
}

FlightContext::~FlightContext() { tls_context = prev_; }

int32_t
FlightContext::currentContig()
{
    return tls_context ? tls_context->contig_ : -1;
}

uint32_t
FlightContext::nextSeq()
{
    if (tls_context)
        return tls_context->seq_++;
    return tls_fallback_seq++;
}

} // namespace obs
} // namespace iracc
