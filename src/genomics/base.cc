#include "genomics/base.hh"

#include <algorithm>
#include <cctype>

#include "util/logging.hh"

namespace iracc {

const char kConcreteBases[4] = { 'A', 'C', 'G', 'T' };

Base
charToBase(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return Base::A;
      case 'C': return Base::C;
      case 'G': return Base::G;
      case 'T': return Base::T;
      case 'N': return Base::N;
      default:
        panic("invalid base character '%c' (0x%02x)", c, c);
    }
}

char
baseToChar(Base b)
{
    switch (b) {
      case Base::A: return 'A';
      case Base::C: return 'C';
      case Base::G: return 'G';
      case Base::T: return 'T';
      case Base::N: return 'N';
    }
    panic("invalid Base enum value %d", static_cast<int>(b));
}

bool
isValidBaseChar(char c)
{
    // Spelled out rather than via std::toupper: the same set in the
    // C locale (the program never calls setlocale), without a call
    // per base on the ingest path.
    switch (c) {
      case 'A': case 'C': case 'G': case 'T': case 'N':
      case 'a': case 'c': case 'g': case 't': case 'n':
        return true;
      default:
        return false;
    }
}

char
complement(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return 'T';
      case 'C': return 'G';
      case 'G': return 'C';
      case 'T': return 'A';
      case 'N': return 'N';
      default:
        panic("cannot complement invalid base '%c'", c);
    }
}

BaseSeq
reverseComplement(const BaseSeq &seq)
{
    BaseSeq out;
    out.reserve(seq.size());
    for (auto it = seq.rbegin(); it != seq.rend(); ++it)
        out.push_back(complement(*it));
    return out;
}

bool
isValidSequence(std::string_view seq)
{
    return std::all_of(seq.begin(), seq.end(), isValidBaseChar);
}

int
baseIndex(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default:
        panic("baseIndex of non-concrete base '%c'", c);
    }
}

} // namespace iracc
