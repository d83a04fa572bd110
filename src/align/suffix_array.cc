#include "align/suffix_array.hh"

#include <algorithm>
#include <numeric>

#include "util/logging.hh"

namespace iracc {

SuffixArray::SuffixArray(const BaseSeq &t) : text(t)
{
    const int64_t n = static_cast<int64_t>(text.size());
    sa.resize(static_cast<size_t>(n));
    std::iota(sa.begin(), sa.end(), 0);
    if (n <= 1)
        return;

    // Prefix doubling: rank[i] is the rank of suffix i by its first
    // k characters; each round doubles k.
    std::vector<int64_t> rank(static_cast<size_t>(n));
    std::vector<int64_t> tmp(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        rank[static_cast<size_t>(i)] =
            static_cast<unsigned char>(text[static_cast<size_t>(i)]);

    for (int64_t k = 1;; k *= 2) {
        auto cmp = [&](int64_t a, int64_t b) {
            if (rank[static_cast<size_t>(a)] !=
                rank[static_cast<size_t>(b)]) {
                return rank[static_cast<size_t>(a)] <
                       rank[static_cast<size_t>(b)];
            }
            int64_t ra = a + k < n ? rank[static_cast<size_t>(a + k)]
                                   : -1;
            int64_t rb = b + k < n ? rank[static_cast<size_t>(b + k)]
                                   : -1;
            return ra < rb;
        };
        std::sort(sa.begin(), sa.end(), cmp);

        tmp[static_cast<size_t>(sa[0])] = 0;
        for (int64_t i = 1; i < n; ++i) {
            tmp[static_cast<size_t>(sa[static_cast<size_t>(i)])] =
                tmp[static_cast<size_t>(sa[static_cast<size_t>(i - 1)])]
                + (cmp(sa[static_cast<size_t>(i - 1)],
                       sa[static_cast<size_t>(i)]) ? 1 : 0);
        }
        rank = tmp;
        if (rank[static_cast<size_t>(sa[static_cast<size_t>(n - 1)])] ==
            n - 1) {
            break; // all ranks distinct: fully sorted
        }
    }
}

int
SuffixArray::comparePattern(std::string_view pattern, size_t plen,
                            int64_t r) const
{
    size_t pos = static_cast<size_t>(sa[static_cast<size_t>(r)]);
    size_t avail = text.size() - pos;
    size_t n = std::min(plen, avail);
    int c = std::char_traits<char>::compare(pattern.data(),
                                            text.data() + pos, n);
    if (c != 0)
        return c;
    // Pattern longer than the suffix: pattern sorts after.
    return plen > avail ? 1 : 0;
}

SaRange
SuffixArray::find(std::string_view pattern) const
{
    panic_if(pattern.empty(), "empty pattern");
    SaRange range;
    // Lower bound: first suffix >= pattern.
    int64_t lo = 0, hi = size();
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (comparePattern(pattern, pattern.size(), mid) > 0)
            lo = mid + 1;
        else
            hi = mid;
    }
    range.lo = lo;
    // Upper bound: first suffix whose prefix exceeds pattern.
    hi = size();
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        // Compare only the first |pattern| characters: equal means
        // the suffix still starts with the pattern.
        size_t pos = static_cast<size_t>(sa[static_cast<size_t>(mid)]);
        size_t avail = text.size() - pos;
        size_t n = std::min(pattern.size(), avail);
        int c = std::char_traits<char>::compare(
            pattern.data(), text.data() + pos, n);
        bool starts_with = c == 0 && avail >= pattern.size();
        bool pattern_after = c > 0 || (c == 0 && !starts_with);
        if (pattern_after || starts_with)
            lo = mid + 1;
        else
            hi = mid;
    }
    range.hi = lo;
    if (range.hi < range.lo)
        range.hi = range.lo;
    return range;
}

int64_t
SuffixArray::longestPrefixMatch(std::string_view pattern, size_t offset,
                                SaRange &range) const
{
    panic_if(offset >= pattern.size(), "offset beyond pattern");
    // Extend one character at a time, narrowing the current match
    // range in place: within [lo, hi) every suffix shares the
    // first `len` pattern characters, so the sub-range matching
    // the next character is found by binary search on the
    // (len+1)-th character of each suffix.  O(L log n) total.
    int64_t matched = 0;
    SaRange cur{0, size()};
    SaRange best{0, size()};

    for (size_t len = 0; offset + len < pattern.size(); ++len) {
        const char c = pattern[offset + len];
        // First suffix in [lo, hi) whose len-th character >= c.
        auto char_at = [&](int64_t r) -> int {
            size_t pos = static_cast<size_t>(
                             sa[static_cast<size_t>(r)]) + len;
            // Shorter suffixes sort first; treat end as -1.
            return pos < text.size()
                ? static_cast<unsigned char>(text[pos])
                : -1;
        };
        int64_t lo = cur.lo, hi = cur.hi;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (char_at(mid) < static_cast<unsigned char>(c))
                lo = mid + 1;
            else
                hi = mid;
        }
        int64_t first = lo;
        lo = first;
        hi = cur.hi;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (char_at(mid) <= static_cast<unsigned char>(c))
                lo = mid + 1;
            else
                hi = mid;
        }
        SaRange next{first, lo};
        if (next.empty())
            break;
        cur = next;
        best = next;
        matched = static_cast<int64_t>(len) + 1;
    }
    range = matched > 0 ? best : SaRange{0, 0};
    return matched;
}

} // namespace iracc
