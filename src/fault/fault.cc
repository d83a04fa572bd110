#include "fault/fault.hh"

#include <array>
#include <sstream>

#include "obs/flight_recorder.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace iracc {

namespace {

constexpr std::array<const char *, kNumFaultKinds> kKindNames = {
    "corrupt-write", "stall", "unit-hang", "drop-response",
    "dma-drop"};

bool
parseKind(const std::string &token, FaultKind *kind)
{
    for (size_t i = 0; i < kKindNames.size(); ++i) {
        if (token == kKindNames[i]) {
            *kind = static_cast<FaultKind>(i);
            return true;
        }
    }
    return false;
}

uint64_t
parseNumber(const std::string &s, const char *what)
{
    fatal_if(s.empty(), "fault plan: empty %s", what);
    for (char c : s)
        fatal_if(c < '0' || c > '9',
                 "fault plan: malformed %s '%s'", what, s.c_str());
    return std::stoull(s);
}

} // anonymous namespace

const char *
faultKindName(FaultKind kind)
{
    size_t i = static_cast<size_t>(kind);
    panic_if(i >= kKindNames.size(), "invalid FaultKind %zu", i);
    return kKindNames[i];
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    for (size_t i = 0; i < specs.size(); ++i) {
        const FaultSpec &s = specs[i];
        if (i != 0)
            os << ';';
        os << faultKindName(s.kind);
        std::vector<std::string> kv;
        if (s.unit >= 0)
            kv.push_back("unit=" + std::to_string(s.unit));
        if (!s.channel.empty())
            kv.push_back("channel=" + s.channel);
        if (s.kind == FaultKind::CorruptWrite && s.bit != 0)
            kv.push_back("bit=" + std::to_string(s.bit));
        if (s.kind == FaultKind::ChannelStall)
            kv.push_back("cycles=" + std::to_string(s.stallCycles));
        if (s.repeat != 0)
            kv.push_back("repeat=" + std::to_string(s.repeat));
        for (size_t k = 0; k < kv.size(); ++k)
            os << (k == 0 ? ':' : ',') << kv[k];
        os << '@' << s.occurrence;
    }
    return os.str();
}

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    std::istringstream specs(text);
    std::string item;
    while (std::getline(specs, item, ';')) {
        if (item.empty())
            continue;
        FaultSpec spec;

        std::string body = item;
        size_t at = body.rfind('@');
        if (at != std::string::npos) {
            spec.occurrence = parseNumber(body.substr(at + 1),
                                          "occurrence");
            fatal_if(spec.occurrence == 0,
                     "fault plan: occurrence must be >= 1");
            body = body.substr(0, at);
        }
        size_t colon = body.find(':');
        std::string kind_tok = body.substr(0, colon);
        fatal_if(!parseKind(kind_tok, &spec.kind),
                 "fault plan: unknown fault kind '%s'",
                 kind_tok.c_str());
        if (colon != std::string::npos) {
            std::istringstream kvs(body.substr(colon + 1));
            std::string kv;
            while (std::getline(kvs, kv, ',')) {
                size_t eq = kv.find('=');
                fatal_if(eq == std::string::npos,
                         "fault plan: malformed option '%s'",
                         kv.c_str());
                std::string key = kv.substr(0, eq);
                std::string value = kv.substr(eq + 1);
                if (key == "unit") {
                    spec.unit = static_cast<int32_t>(
                        parseNumber(value, "unit"));
                } else if (key == "channel") {
                    spec.channel = value;
                } else if (key == "bit") {
                    spec.bit = static_cast<uint32_t>(
                        parseNumber(value, "bit"));
                } else if (key == "cycles") {
                    spec.stallCycles = parseNumber(value, "cycles");
                } else if (key == "repeat") {
                    spec.repeat = parseNumber(value, "repeat");
                } else {
                    fatal("fault plan: unknown option '%s'",
                          key.c_str());
                }
            }
        }
        plan.specs.push_back(std::move(spec));
    }
    return plan;
}

FaultPlan
FaultPlan::random(uint64_t seed)
{
    // A distinct stream from the workload generators so the same
    // fuzz seed drives independent workload and fault randomness.
    Rng rng = Rng::stream(seed, 0xFA017EDull, 0x1213ull);
    FaultPlan plan;
    size_t n = 1 + rng.below(3);
    for (size_t i = 0; i < n; ++i) {
        FaultSpec spec;
        spec.kind = static_cast<FaultKind>(
            rng.below(kNumFaultKinds));
        spec.occurrence = 1 + rng.below(24);
        if (rng.chance(0.2))
            spec.repeat = 1 + rng.below(8);
        switch (spec.kind) {
          case FaultKind::CorruptWrite:
            spec.bit = static_cast<uint32_t>(rng.below(64));
            break;
          case FaultKind::ChannelStall:
            spec.stallCycles = 1ull << (6 + rng.below(16));
            if (rng.chance(0.5))
                spec.channel = rng.chance(0.5) ? "ddr0" : "pcie-dma";
            break;
          case FaultKind::UnitHang:
          case FaultKind::DropResponse:
            if (rng.chance(0.5))
                spec.unit = static_cast<int32_t>(rng.below(32));
            break;
          case FaultKind::DmaDrop:
            break;
        }
        plan.specs.push_back(std::move(spec));
    }
    return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
{
    armed.reserve(plan.specs.size());
    for (FaultSpec &spec : plan.specs) {
        // Intern the spec's canonical text once so the recorder
        // event is a fixed-size binary record.
        FaultPlan one;
        one.specs.push_back(spec);
        uint32_t textId =
            obs::FlightRecorder::instance().intern(one.describe());
        armed.push_back(Armed{std::move(spec), 0, textId});
    }
}

void
FaultInjector::setObsContext(int32_t card,
                             std::function<uint64_t()> now)
{
    obsCard = card;
    obsNow = std::move(now);
}

void
FaultInjector::noteInjected(const Armed &a)
{
    obs::frEmit(obs::FrSeverity::Warn, obs::FrCategory::Fault,
                obs::FrCode::FaultInjected,
                obsNow ? obsNow() : 0, obsCard,
                static_cast<uint64_t>(&a - armed.data()),
                static_cast<uint64_t>(a.spec.kind), a.seen,
                a.textId);
}

bool
FaultInjector::fires(Armed &a)
{
    ++a.seen;
    if (a.seen == a.spec.occurrence)
        return true;
    if (a.spec.repeat != 0 && a.seen > a.spec.occurrence &&
        (a.seen - a.spec.occurrence) % a.spec.repeat == 0)
        return true;
    return false;
}

bool
FaultInjector::corruptWrite(uint64_t addr, uint64_t len,
                            uint64_t *byte_off, uint8_t *bit_mask)
{
    (void)addr;
    if (len == 0)
        return false;
    for (Armed &a : armed) {
        if (a.spec.kind != FaultKind::CorruptWrite)
            continue;
        if (!fires(a))
            continue;
        uint64_t bit = a.spec.bit % (len * 8);
        *byte_off = bit / 8;
        *bit_mask = static_cast<uint8_t>(1u << (bit % 8));
        ++counts[static_cast<size_t>(FaultKind::CorruptWrite)];
        noteInjected(a);
        return true;
    }
    return false;
}

uint64_t
FaultInjector::stallCycles(const std::string &channel)
{
    uint64_t extra = 0;
    for (Armed &a : armed) {
        if (a.spec.kind != FaultKind::ChannelStall)
            continue;
        if (!a.spec.channel.empty() && a.spec.channel != channel)
            continue;
        if (!fires(a))
            continue;
        extra += a.spec.stallCycles;
        ++counts[static_cast<size_t>(FaultKind::ChannelStall)];
        noteInjected(a);
    }
    return extra;
}

bool
FaultInjector::hangUnit(uint32_t unit)
{
    bool hit = false;
    for (Armed &a : armed) {
        if (a.spec.kind != FaultKind::UnitHang)
            continue;
        if (a.spec.unit >= 0 &&
            a.spec.unit != static_cast<int32_t>(unit))
            continue;
        if (!fires(a))
            continue;
        hit = true;
        ++counts[static_cast<size_t>(FaultKind::UnitHang)];
        noteInjected(a);
    }
    return hit;
}

bool
FaultInjector::dropResponse(uint32_t unit)
{
    bool hit = false;
    for (Armed &a : armed) {
        if (a.spec.kind != FaultKind::DropResponse)
            continue;
        if (a.spec.unit >= 0 &&
            a.spec.unit != static_cast<int32_t>(unit))
            continue;
        if (!fires(a))
            continue;
        hit = true;
        ++counts[static_cast<size_t>(FaultKind::DropResponse)];
        noteInjected(a);
    }
    return hit;
}

bool
FaultInjector::dropDma()
{
    bool hit = false;
    for (Armed &a : armed) {
        if (a.spec.kind != FaultKind::DmaDrop)
            continue;
        if (!fires(a))
            continue;
        hit = true;
        ++counts[static_cast<size_t>(FaultKind::DmaDrop)];
        noteInjected(a);
    }
    return hit;
}

uint64_t
FaultInjector::injected(FaultKind kind) const
{
    return counts[static_cast<size_t>(kind)];
}

uint64_t
FaultInjector::totalInjected() const
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    return total;
}

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Degraded:
        return "degraded";
      case RunStatus::Failed:
        return "failed";
    }
    panic("invalid RunStatus");
}

namespace {

/**
 * Slice-by-8 tables for the reflected polynomial 0xEDB88320:
 * table 0 is the byte-at-a-time table, and table k maps a byte to
 * its CRC contribution followed by k zero bytes, so eight lookups
 * fold eight bytes at once.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t c = b;
        for (int i = 0; i < 8; ++i)
            c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
        t[0][b] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
        for (uint32_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
    return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    makeCrcTables();

/** Four bytes as a little-endian word, on any host. */
inline uint32_t
le32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // anonymous namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const auto &t = kCrcTables;
    uint32_t crc = ~seed;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (; len >= 8; p += 8, len -= 8) {
        const uint32_t lo = crc ^ le32(p);
        const uint32_t hi = le32(p + 4);
        crc = t[7][lo & 0xFF] ^ t[6][lo >> 8 & 0xFF] ^
              t[5][lo >> 16 & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][hi >> 8 & 0xFF] ^
              t[1][hi >> 16 & 0xFF] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
    return ~crc;
}

} // namespace iracc
