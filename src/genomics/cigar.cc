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

Cigar::Cigar(std::span<const CigarElem> elems)
{
    reserve(elems.size());
    for (const CigarElem &e : elems)
        append(e);
}

Cigar::Cigar(const Cigar &o)
{
    reserve(o.count);
    std::copy_n(o.data(), o.count, data());
    count = o.count;
}

Cigar::Cigar(Cigar &&o) noexcept
{
    *this = std::move(o);
}

Cigar &
Cigar::operator=(const Cigar &o)
{
    if (this != &o) {
        count = 0;
        reserve(o.count);
        std::copy_n(o.data(), o.count, data());
        count = o.count;
    }
    return *this;
}

Cigar &
Cigar::operator=(Cigar &&o) noexcept
{
    if (this == &o)
        return *this;
    release();
    if (o.onHeap()) {
        heap = o.heap;
        cap = o.cap;
        o.cap = kInline;
    } else {
        std::copy_n(o.inl, o.count, inl);
    }
    count = o.count;
    o.count = 0;
    return *this;
}

void
Cigar::release()
{
    if (onHeap())
        delete[] heap;
    cap = kInline;
    count = 0;
}

void
Cigar::reserve(size_t n)
{
    if (n <= cap)
        return;
    panic_if(n > std::numeric_limits<uint32_t>::max(),
             "CIGAR of %zu elements", n);
    CigarElem *grown = new CigarElem[n];
    std::copy_n(data(), count, grown);
    if (onHeap())
        delete[] heap;
    heap = grown;
    cap = static_cast<uint32_t>(n);
}

void
Cigar::append(CigarElem e)
{
    if (e.length == 0)
        return;
    if (count > 0 && data()[count - 1].op == e.op) {
        data()[count - 1].length += e.length;
        return;
    }
    if (count == cap)
        reserve(2 * static_cast<size_t>(cap));
    data()[count++] = e;
}

const CigarElem &
Cigar::operator[](size_t i) const
{
    panic_if(i >= count, "CIGAR element %zu of %u", i, count);
    return data()[i];
}

bool
Cigar::operator==(const Cigar &o) const
{
    return std::ranges::equal(elements(), o.elements());
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
    Cigar parsed;
    parsed.reserve(static_cast<size_t>(std::count_if(
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
        parsed.append({static_cast<uint32_t>(len), op});
        len = 0;
        have_len = false;
    }
    if (have_len)
        return false;
    *out = std::move(parsed);
    return true;
}

Cigar
Cigar::simpleMatch(uint32_t read_length)
{
    return Cigar{{read_length, CigarOp::Match}};
}

std::string
Cigar::toString() const
{
    if (empty())
        return "*";
    std::string out;
    for (const auto &e : elements()) {
        out += std::to_string(e.length);
        out.push_back(cigarOpChar(e.op));
    }
    return out;
}

uint32_t
Cigar::referenceLength() const
{
    uint32_t len = 0;
    for (const auto &e : elements())
        if (e.op == CigarOp::Match || e.op == CigarOp::Delete)
            len += e.length;
    return len;
}

uint32_t
Cigar::readLength() const
{
    uint32_t len = 0;
    for (const auto &e : elements())
        if (e.op != CigarOp::Delete)
            len += e.length;
    return len;
}

uint32_t
Cigar::alignedLength() const
{
    uint32_t len = 0;
    for (const auto &e : elements())
        if (e.op == CigarOp::Match)
            len += e.length;
    return len;
}

bool
Cigar::hasIndel() const
{
    for (const auto &e : elements())
        if (e.op == CigarOp::Insert || e.op == CigarOp::Delete)
            return true;
    return false;
}

uint32_t
Cigar::indelBases() const
{
    uint32_t len = 0;
    for (const auto &e : elements())
        if (e.op == CigarOp::Insert || e.op == CigarOp::Delete)
            len += e.length;
    return len;
}

} // namespace iracc
