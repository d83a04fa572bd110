#include "genomics/cigar.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace iracc {

char
cigarOpChar(CigarOp op)
{
    switch (op) {
      case CigarOp::Match:    return 'M';
      case CigarOp::Insert:   return 'I';
      case CigarOp::Delete:   return 'D';
      case CigarOp::SoftClip: return 'S';
    }
    panic("invalid CigarOp %d", static_cast<int>(op));
}

CigarOp
charToCigarOp(char c)
{
    switch (c) {
      case 'M': return CigarOp::Match;
      case 'I': return CigarOp::Insert;
      case 'D': return CigarOp::Delete;
      case 'S': return CigarOp::SoftClip;
      default:
        panic("unsupported CIGAR op '%c'", c);
    }
}

Cigar::Cigar(std::vector<CigarElem> raw) : elems(std::move(raw))
{
    // Merge in place: kept runs only ever move toward the front.
    size_t kept = 0;
    for (const CigarElem &e : elems) {
        if (e.length == 0)
            continue;
        if (kept > 0 && elems[kept - 1].op == e.op)
            elems[kept - 1].length += e.length;
        else
            elems[kept++] = e;
    }
    elems.resize(kept);
}

Cigar
Cigar::fromString(const std::string &s)
{
    Cigar out;
    panic_if(!tryFromString(s, &out), "malformed CIGAR string '%s'",
             s.c_str());
    return out;
}

bool
Cigar::tryFromString(std::string_view s, Cigar *out)
{
    if (s == "*" || s.empty()) {
        *out = Cigar();
        return true;
    }
    constexpr uint64_t kMax = std::numeric_limits<uint32_t>::max();
    std::vector<CigarElem> elems;
    elems.reserve(static_cast<size_t>(std::count_if(
        s.begin(), s.end(), [](char c) { return c < '0' || c > '9'; })));
    // Every op consumes read or reference bases, so bounding both
    // totals also bounds every merged run.
    uint64_t readLen = 0;
    uint64_t refLen = 0;
    uint64_t len = 0;
    bool have_len = false;
    for (char c : s) {
        if (c >= '0' && c <= '9') {
            len = len * 10 + static_cast<uint64_t>(c - '0');
            if (len > kMax)
                return false;
            have_len = true;
            continue;
        }
        if (!have_len)
            return false;
        CigarOp op;
        switch (c) {
          case 'M': op = CigarOp::Match; break;
          case 'I': op = CigarOp::Insert; break;
          case 'D': op = CigarOp::Delete; break;
          case 'S': op = CigarOp::SoftClip; break;
          default:
            return false;
        }
        if (op != CigarOp::Delete)
            readLen += len;
        if (op == CigarOp::Match || op == CigarOp::Delete)
            refLen += len;
        if (readLen > kMax || refLen > kMax)
            return false;
        elems.push_back({static_cast<uint32_t>(len), op});
        len = 0;
        have_len = false;
    }
    if (have_len)
        return false;
    *out = Cigar(std::move(elems));
    return true;
}

Cigar
Cigar::simpleMatch(uint32_t read_length)
{
    return Cigar({{read_length, CigarOp::Match}});
}

std::string
Cigar::toString() const
{
    if (elems.empty())
        return "*";
    std::string out;
    for (const auto &e : elems) {
        out += std::to_string(e.length);
        out.push_back(cigarOpChar(e.op));
    }
    return out;
}

uint32_t
Cigar::referenceLength() const
{
    uint32_t len = 0;
    for (const auto &e : elems)
        if (e.op == CigarOp::Match || e.op == CigarOp::Delete)
            len += e.length;
    return len;
}

uint32_t
Cigar::readLength() const
{
    uint32_t len = 0;
    for (const auto &e : elems)
        if (e.op != CigarOp::Delete)
            len += e.length;
    return len;
}

uint32_t
Cigar::alignedLength() const
{
    uint32_t len = 0;
    for (const auto &e : elems)
        if (e.op == CigarOp::Match)
            len += e.length;
    return len;
}

bool
Cigar::hasIndel() const
{
    for (const auto &e : elems)
        if (e.op == CigarOp::Insert || e.op == CigarOp::Delete)
            return true;
    return false;
}

uint32_t
Cigar::indelBases() const
{
    uint32_t len = 0;
    for (const auto &e : elems)
        if (e.op == CigarOp::Insert || e.op == CigarOp::Delete)
            len += e.length;
    return len;
}

} // namespace iracc
