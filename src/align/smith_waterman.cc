#include "align/smith_waterman.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/logging.hh"

namespace iracc {

namespace {

constexpr int32_t kNegInf =
    std::numeric_limits<int32_t>::min() / 4;

/** Traceback direction tags. */
enum class Dir : uint8_t { None, Diag, Up, Left };

} // anonymous namespace

SwAlignment
smithWaterman(std::string_view window, std::string_view read,
              const SwParams &p)
{
    const int64_t m = static_cast<int64_t>(window.size());
    const int64_t n = static_cast<int64_t>(read.size());
    panic_if(n == 0, "empty read");
    panic_if(m == 0, "empty window");

    // DP over rows i = read prefix length (0..n), cols j = window
    // prefix length (0..m).  M = match/mismatch state, X = gap in
    // read (deletion, consumes window), Y = gap in window
    // (insertion, consumes read).  Semi-global: row 0 is free
    // (alignment may start at any window offset); the answer is the
    // best cell in row n (alignment may end anywhere).
    const size_t cols = static_cast<size_t>(m) + 1;
    std::vector<int32_t> M((static_cast<size_t>(n) + 1) * cols,
                           kNegInf);
    std::vector<int32_t> X((static_cast<size_t>(n) + 1) * cols,
                           kNegInf);
    std::vector<int32_t> Y((static_cast<size_t>(n) + 1) * cols,
                           kNegInf);
    std::vector<uint8_t> back((static_cast<size_t>(n) + 1) * cols, 0);
    auto at = [cols](int64_t i, int64_t j) {
        return static_cast<size_t>(i) * cols + static_cast<size_t>(j);
    };

    for (int64_t j = 0; j <= m; ++j)
        M[at(0, j)] = 0; // free leading window gap

    SwAlignment result;
    for (int64_t i = 1; i <= n; ++i) {
        for (int64_t j = 0; j <= m; ++j) {
            // Y: insertion (read base against nothing).
            int32_t open_y = M[at(i - 1, j)] - p.gapOpenPenalty;
            int32_t ext_y = Y[at(i - 1, j)] - p.gapExtendPenalty;
            Y[at(i, j)] = std::max(open_y, ext_y);

            if (j == 0) {
                M[at(i, j)] = kNegInf;
                X[at(i, j)] = kNegInf;
                continue;
            }

            // X: deletion (window base skipped).
            int32_t open_x = M[at(i, j - 1)] - p.gapOpenPenalty;
            int32_t ext_x = X[at(i, j - 1)] - p.gapExtendPenalty;
            X[at(i, j)] = std::max(open_x, ext_x);

            // M: diagonal step consuming both.
            int32_t sub = window[static_cast<size_t>(j - 1)] ==
                           read[static_cast<size_t>(i - 1)]
                ? p.matchScore
                : -p.mismatchPenalty;
            int32_t best_prev = std::max(
                {M[at(i - 1, j - 1)], X[at(i - 1, j - 1)],
                 Y[at(i - 1, j - 1)]});
            M[at(i, j)] = best_prev == kNegInf ? kNegInf
                                               : best_prev + sub;
            ++result.cellsComputed;
        }
    }

    // Pick the best end state in row n.
    int64_t end_j = 0;
    int32_t best = kNegInf;
    char end_state = 'M';
    for (int64_t j = 0; j <= m; ++j) {
        if (M[at(n, j)] > best) {
            best = M[at(n, j)];
            end_j = j;
            end_state = 'M';
        }
        if (Y[at(n, j)] > best) {
            best = Y[at(n, j)];
            end_j = j;
            end_state = 'Y';
        }
        // Ending in X (trailing deletion) is never optimal with
        // positive gap penalties; skip it.
    }
    result.score = best;

    // Traceback to a CIGAR (reversed, then flipped).
    std::vector<CigarElem> rev;
    auto push = [&rev](CigarOp op) {
        if (!rev.empty() && rev.back().op == op)
            ++rev.back().length;
        else
            rev.push_back({1, op});
    };

    int64_t i = n, j = end_j;
    char state = end_state;
    while (i > 0) {
        if (state == 'M') {
            int32_t here = M[at(i, j)];
            push(CigarOp::Match);
            int32_t sub = here -
                std::max({M[at(i - 1, j - 1)], X[at(i - 1, j - 1)],
                          Y[at(i - 1, j - 1)]});
            (void)sub;
            // Choose predecessor state.
            int32_t diag_m = M[at(i - 1, j - 1)];
            int32_t diag_x = X[at(i - 1, j - 1)];
            int32_t diag_y = Y[at(i - 1, j - 1)];
            --i;
            --j;
            if (diag_m >= diag_x && diag_m >= diag_y)
                state = 'M';
            else if (diag_x >= diag_y)
                state = 'X';
            else
                state = 'Y';
        } else if (state == 'X') {
            push(CigarOp::Delete);
            int32_t here = X[at(i, j)];
            bool opened = here == M[at(i, j - 1)] - p.gapOpenPenalty;
            --j;
            state = opened ? 'M' : 'X';
        } else { // 'Y'
            push(CigarOp::Insert);
            int32_t here = Y[at(i, j)];
            bool opened = here == M[at(i - 1, j)] - p.gapOpenPenalty;
            --i;
            state = opened ? 'M' : 'Y';
        }
    }
    result.windowOffset = j;

    std::reverse(rev.begin(), rev.end());
    result.cigar = Cigar(std::move(rev));
    return result;
}

} // namespace iracc
