#include "genomics/cigar.hh"

#include <cctype>
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

Cigar::Cigar(std::vector<CigarElem> raw)
{
    for (const auto &e : raw) {
        if (e.length == 0)
            continue;
        if (!elems.empty() && elems.back().op == e.op)
            elems.back().length += e.length;
        else
            elems.push_back(e);
    }
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
    std::vector<CigarElem> elems;
    if (s == "*" || s.empty()) {
        *out = Cigar();
        return true;
    }
    uint64_t len = 0;
    bool have_len = false;
    for (char c : s) {
        if (std::isdigit(static_cast<unsigned char>(c))) {
            len = len * 10 + static_cast<uint64_t>(c - '0');
            if (len > std::numeric_limits<uint32_t>::max())
                return false;
            have_len = true;
        } else {
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
            elems.push_back({static_cast<uint32_t>(len), op});
            len = 0;
            have_len = false;
        }
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
