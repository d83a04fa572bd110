#include "realign/target.hh"

#include <algorithm>

#include "realign/limits.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/** Reference interval [start, end) touched by one CIGAR indel. */
struct IndelInterval
{
    int64_t start;
    int64_t end;
};

/** Extract the reference intervals of all indels in a read. */
std::vector<IndelInterval>
readIndelIntervals(const Read &read)
{
    std::vector<IndelInterval> out;
    int64_t ref = read.pos;
    for (const auto &e : read.cigar.elements()) {
        switch (e.op) {
          case CigarOp::Match:
            ref += e.length;
            break;
          case CigarOp::Insert:
            // Insertions occupy a zero-length reference point; give
            // them a 1 bp footprint so padding/merging treats them
            // like deletions.
            out.push_back({ref, ref + 1});
            break;
          case CigarOp::Delete:
            out.push_back({ref, ref + e.length});
            ref += e.length;
            break;
          case CigarOp::SoftClip:
            break;
        }
    }
    return out;
}

} // anonymous namespace

std::vector<IrTarget>
createTargets(const std::vector<Read> &reads, int32_t contig,
              int64_t contig_length,
              const TargetCreationParams &params,
              const std::vector<uint32_t> *candidates)
{
    std::vector<IndelInterval> intervals;
    auto scan = [&](const Read &read) {
        if (read.contig != contig || read.duplicate)
            return;
        for (const auto &iv : readIndelIntervals(read)) {
            intervals.push_back({
                std::max<int64_t>(0, iv.start - params.padding),
                std::min(contig_length, iv.end + params.padding)});
        }
    };
    if (candidates) {
        for (uint32_t i : *candidates)
            scan(reads[i]);
    } else {
        for (const Read &read : reads)
            scan(read);
    }
    if (intervals.empty())
        return {};

    std::sort(intervals.begin(), intervals.end(),
              [](const IndelInterval &a, const IndelInterval &b) {
                  return a.start != b.start ? a.start < b.start
                                            : a.end < b.end;
              });

    std::vector<IrTarget> targets;
    IndelInterval cur = intervals.front();
    auto flush = [&] {
        // Split over-long merged intervals so each target's
        // consensus fits the 2048-byte buffer.
        int64_t s = cur.start;
        while (cur.end - s > params.maxTargetLength) {
            targets.push_back({contig, s, s + params.maxTargetLength});
            s += params.maxTargetLength;
        }
        if (cur.end > s)
            targets.push_back({contig, s, cur.end});
    };
    for (size_t i = 1; i < intervals.size(); ++i) {
        const auto &iv = intervals[i];
        if (iv.start <= cur.end + params.mergeDistance) {
            cur.end = std::max(cur.end, iv.end);
        } else {
            flush();
            cur = iv;
        }
    }
    flush();
    return targets;
}

std::vector<uint32_t>
assignReads(const std::vector<Read> &reads, const IrTarget &target)
{
    std::vector<uint32_t> out;
    for (uint32_t j = 0; j < reads.size(); ++j) {
        const Read &read = reads[j];
        if (read.duplicate)
            continue;
        if (!read.overlaps(target.contig, target.start, target.end))
            continue;
        if (out.size() >= kMaxReads)
            break;
        out.push_back(j);
    }
    return out;
}

} // namespace iracc
