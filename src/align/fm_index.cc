#include "align/fm_index.hh"

#include <algorithm>

#include "util/logging.hh"

namespace iracc {

int
FmIndex::charRank(char c)
{
    switch (c) {
      case '$': return 0;
      case 'A': return 1;
      case 'C': return 2;
      case 'G': return 3;
      case 'N': return 4;
      case 'T': return 5;
      default:
        panic("FM-index: unsupported character '%c'", c);
    }
}

FmIndex::FmIndex(const BaseSeq &text)
    : textLen(static_cast<int64_t>(text.size()))
{
    // Sentinel-terminated text; '$' (0x24) sorts before every base
    // in ASCII, matching charRank order ($ < A < C < G < N < T).
    BaseSeq t = text + '$';
    const int64_t n = static_cast<int64_t>(t.size());
    SuffixArray sa(t);

    bwt.resize(static_cast<size_t>(n));
    sampledSa.assign(static_cast<size_t>(n), -1);
    std::array<int64_t, kAlphabet> counts{};
    for (int64_t r = 0; r < n; ++r) {
        int64_t pos = sa.position(r);
        char prev = pos == 0 ? '$'
                             : t[static_cast<size_t>(pos - 1)];
        bwt[static_cast<size_t>(r)] =
            static_cast<uint8_t>(charRank(prev));
        ++counts[static_cast<size_t>(charRank(
            t[static_cast<size_t>(pos)]))];
        if (pos % kSaSample == 0)
            sampledSa[static_cast<size_t>(r)] = pos;
    }

    // C table: cTable[c] = number of text characters with rank < c.
    cTable[0] = 0;
    for (int c = 0; c < kAlphabet; ++c)
        cTable[static_cast<size_t>(c + 1)] =
            cTable[static_cast<size_t>(c)] +
            counts[static_cast<size_t>(c)];

    // Occ checkpoints every kOccSample BWT positions.
    const int64_t blocks = n / kOccSample + 1;
    occSamples.resize(static_cast<size_t>(blocks));
    std::array<int64_t, kAlphabet> running{};
    for (int64_t i = 0; i < n; ++i) {
        if (i % kOccSample == 0)
            occSamples[static_cast<size_t>(i / kOccSample)] =
                running;
        ++running[bwt[static_cast<size_t>(i)]];
    }
    if ((n % kOccSample) == 0 &&
        static_cast<size_t>(n / kOccSample) < occSamples.size()) {
        occSamples[static_cast<size_t>(n / kOccSample)] = running;
    }
}

int64_t
FmIndex::occ(int c, int64_t i) const
{
    panic_if(i < 0 || i > static_cast<int64_t>(bwt.size()),
             "occ index out of range");
    int64_t block = i / kOccSample;
    if (static_cast<size_t>(block) >= occSamples.size())
        block = static_cast<int64_t>(occSamples.size()) - 1;
    int64_t count =
        occSamples[static_cast<size_t>(block)][
            static_cast<size_t>(c)];
    for (int64_t j = block * kOccSample; j < i; ++j)
        count += bwt[static_cast<size_t>(j)] == c ? 1 : 0;
    return count;
}

int64_t
FmIndex::lf(int64_t i) const
{
    int c = bwt[static_cast<size_t>(i)];
    return cTable[static_cast<size_t>(c)] + occ(c, i);
}

SaRange
FmIndex::find(std::string_view pattern) const
{
    panic_if(pattern.empty(), "empty pattern");
    int64_t lo = 0;
    int64_t hi = static_cast<int64_t>(bwt.size());
    for (auto it = pattern.rbegin(); it != pattern.rend(); ++it) {
        int c = charRank(*it);
        lo = cTable[static_cast<size_t>(c)] + occ(c, lo);
        hi = cTable[static_cast<size_t>(c)] + occ(c, hi);
        if (lo >= hi)
            return SaRange{0, 0};
    }
    return SaRange{lo, hi};
}

int64_t
FmIndex::locate(int64_t r) const
{
    panic_if(r < 0 || r >= static_cast<int64_t>(bwt.size()),
             "locate rank out of range");
    int64_t steps = 0;
    while (sampledSa[static_cast<size_t>(r)] < 0) {
        r = lf(r);
        ++steps;
    }
    return sampledSa[static_cast<size_t>(r)] + steps;
}

int64_t
FmIndex::longestPrefixMatch(std::string_view pattern, size_t offset,
                            SaRange &range) const
{
    panic_if(offset >= pattern.size(), "offset beyond pattern");
    // Match length is monotone: a longer prefix matches only if
    // every shorter one does, so binary search on the length.
    int64_t lo_len = 0;
    int64_t hi_len =
        static_cast<int64_t>(pattern.size() - offset);
    SaRange best{0, 0};
    while (lo_len < hi_len) {
        int64_t mid = (lo_len + hi_len + 1) / 2;
        SaRange r = find(pattern.substr(offset,
                                        static_cast<size_t>(mid)));
        if (!r.empty()) {
            lo_len = mid;
            best = r;
        } else {
            hi_len = mid - 1;
        }
    }
    range = best;
    return lo_len;
}

} // namespace iracc
