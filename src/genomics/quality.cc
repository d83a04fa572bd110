#include "genomics/quality.hh"

#include <cmath>
#include <string>

#include "genomics/scan_kernels.hh"
#include "util/logging.hh"

namespace iracc {

double
phredToErrorProb(uint8_t q)
{
    return std::pow(10.0, -static_cast<double>(q) / 10.0);
}

uint8_t
errorProbToPhred(double p)
{
    if (p <= 0.0)
        return kMaxPhred;
    if (p >= 1.0)
        return 0;
    double q = -10.0 * std::log10(p);
    if (q < 0.0)
        q = 0.0;
    if (q > kMaxPhred)
        q = kMaxPhred;
    return static_cast<uint8_t>(std::lround(q));
}

char
phredToAscii(uint8_t q)
{
    panic_if(q > kMaxPhred, "Phred score %u exceeds max %u", q,
             kMaxPhred);
    return static_cast<char>(q + 33);
}

uint8_t
asciiToPhred(char c)
{
    int q = static_cast<unsigned char>(c) - 33;
    panic_if(q < 0 || q > kMaxPhred,
             "invalid FASTQ quality character '%c'", c);
    return static_cast<uint8_t>(q);
}

void
encodeQuals(const uint8_t *quals, size_t n, char *out)
{
    if (encodeQualityChars(quals, n, out, activeSimdKernel()))
        return;
    for (size_t i = 0; i < n; ++i)
        phredToAscii(quals[i]); // panics at the first bad score
    panic("encodeQuals: kernel flagged a score none exceeds");
}

std::string
qualsToAscii(const QualSeq &quals)
{
    std::string out(quals.size(), '\0');
    encodeQuals(quals.data(), quals.size(), out.data());
    return out;
}

QualSeq
asciiToQuals(const std::string &s)
{
    QualSeq out;
    out.reserve(s.size());
    for (char c : s)
        out.push_back(asciiToPhred(c));
    return out;
}

bool
tryAsciiToQuals(const std::string &s, QualSeq *out)
{
    const SimdKernel kernel = activeSimdKernel();
    if (findInvalidQualityChar(s.data(), s.size(), kernel) != s.size())
        return false;
    out->resize(s.size());
    decodeQualityChars(s.data(), s.size(), out->data(), kernel);
    return true;
}

} // namespace iracc
