#include "realign/consensus.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "realign/limits.hh"
#include "util/logging.hh"

namespace iracc {

uint64_t
IrTargetInput::worstCaseComparisons() const
{
    uint64_t total = 0;
    for (const auto &cons : consensuses) {
        for (const SeqSlice &read : readSeqs) {
            if (read.size() > cons.size())
                continue;
            uint64_t offsets = cons.size() - read.size() + 1;
            total += offsets * read.size();
        }
    }
    return total;
}

std::string
IrTargetInput::limitViolation() const
{
    auto fmt = [](auto... args) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), args...);
        return std::string(buf);
    };
    if (consensuses.empty())
        return "target with no consensuses";
    if (consensuses.size() > kMaxConsensuses) {
        return fmt("%zu consensuses exceeds limit %u",
                   consensuses.size(), kMaxConsensuses);
    }
    if (readSeqs.size() > kMaxReads) {
        return fmt("%zu reads exceeds limit %u", readSeqs.size(),
                   kMaxReads);
    }
    if (readSeqs.size() != readIndices.size())
        return "read array size mismatch";
    for (const auto &cons : consensuses) {
        if (cons.size() > kMaxConsensusLen) {
            return fmt("consensus length %zu exceeds limit %u",
                       cons.size(), kMaxConsensusLen);
        }
    }
    // A slice holds as many qualities as bases by construction.
    for (const SeqSlice &read : readSeqs) {
        if (read.size() > kMaxReadLen) {
            return fmt("read length %zu exceeds limit %u",
                       read.size(), kMaxReadLen);
        }
        if (read.size() == 0)
            return "empty read in target";
    }
    return "";
}

void
IrTargetInput::assertWithinLimits() const
{
    std::string violation = limitViolation();
    panic_if(!violation.empty(), "%s", violation.c_str());
}

std::vector<IndelEvent>
extractIndelEvents(const Read &read)
{
    std::vector<IndelEvent> out;
    int64_t ref = read.pos;
    size_t read_off = 0;
    for (const auto &e : read.cigar.elements()) {
        switch (e.op) {
          case CigarOp::Match:
            ref += e.length;
            read_off += e.length;
            break;
          case CigarOp::Insert: {
            IndelEvent ev;
            ev.anchor = ref - 1;
            ev.isInsertion = true;
            ev.insertedBases = read.bases().substr(read_off, e.length);
            ev.support = 1;
            if (ev.anchor >= 0)
                out.push_back(std::move(ev));
            read_off += e.length;
            break;
          }
          case CigarOp::Delete: {
            IndelEvent ev;
            ev.anchor = ref - 1;
            ev.isInsertion = false;
            ev.delLength = static_cast<int32_t>(e.length);
            ev.support = 1;
            if (ev.anchor >= 0)
                out.push_back(std::move(ev));
            ref += e.length;
            break;
          }
          case CigarOp::SoftClip:
            read_off += e.length;
            break;
        }
    }
    return out;
}

namespace {

/** Apply one event to the reference window to form a consensus. */
BaseSeq
applyEvent(const BaseSeq &window, int64_t window_start,
           const IndelEvent &ev)
{
    int64_t cut = ev.anchor - window_start + 1; // bases kept before
    panic_if(cut < 1 || cut > static_cast<int64_t>(window.size()),
             "event anchor outside window");
    BaseSeq out;
    if (ev.isInsertion) {
        out.reserve(window.size() + ev.insertedBases.size());
        out.append(window, 0, static_cast<size_t>(cut));
        out.append(ev.insertedBases);
        out.append(window, static_cast<size_t>(cut),
                   std::string::npos);
    } else {
        int64_t resume = cut + ev.delLength;
        panic_if(resume > static_cast<int64_t>(window.size()),
                 "deletion runs past window");
        out.reserve(window.size() - ev.delLength);
        out.append(window, 0, static_cast<size_t>(cut));
        out.append(window, static_cast<size_t>(resume),
                   std::string::npos);
    }
    return out;
}

} // anonymous namespace

IrTargetInput
buildTargetInput(const ReferenceGenome &ref,
                 const std::vector<Read> &reads, const IrTarget &target,
                 const std::vector<uint32_t> &indices)
{
    IrTargetInput input;
    input.target = target;

    // The consensus window must contain every assigned read's span
    // so each read can slide to any plausible placement.
    int64_t lo = target.start;
    int64_t hi = target.end;
    size_t max_read_len = 0;
    for (uint32_t idx : indices) {
        const Read &read = reads[idx];
        lo = std::min(lo, read.pos);
        hi = std::max(hi, read.endPos());
        max_read_len = std::max(max_read_len, read.length());
    }
    const int64_t contig_len = ref.contig(target.contig).length();
    lo = std::max<int64_t>(0, lo - 8);
    hi = std::min(contig_len, hi + 8);

    // Clamp the window to the consensus buffer, keeping headroom for
    // the longest insertion candidate; trim symmetrically around the
    // target so the indel site stays inside.
    const int64_t headroom = 64;
    const int64_t max_window =
        static_cast<int64_t>(kMaxConsensusLen) - headroom;
    if (hi - lo > max_window) {
        int64_t center = (target.start + target.end) / 2;
        lo = std::max<int64_t>(0, center - max_window / 2);
        hi = std::min(contig_len, lo + max_window);
    }
    // The window must fit the longest read.
    if (hi - lo < static_cast<int64_t>(max_read_len)) {
        hi = std::min(contig_len,
                      lo + static_cast<int64_t>(max_read_len));
        lo = std::max<int64_t>(
            0, hi - static_cast<int64_t>(max_read_len));
    }
    input.windowStart = lo;
    input.windowEnd = hi;

    BaseSeq window = ref.slice(target.contig, lo, hi);

    // Harvest candidate indel events from the assigned reads.
    std::vector<IndelEvent> events;
    for (uint32_t idx : indices) {
        for (IndelEvent &ev : extractIndelEvents(reads[idx])) {
            // Keep only events that can be applied inside the window
            // (need >=1 anchored base before, >=1 base after).
            if (ev.anchor < lo || ev.anchor >= hi - 1)
                continue;
            if (!ev.isInsertion &&
                ev.anchor + 1 + ev.delLength > hi) {
                continue;
            }
            bool merged = false;
            for (IndelEvent &known : events) {
                if (known.sameEvent(ev)) {
                    ++known.support;
                    merged = true;
                    break;
                }
            }
            if (!merged)
                events.push_back(std::move(ev));
        }
    }

    // Deterministic order: strongest support first, then position.
    std::stable_sort(events.begin(), events.end(),
                     [](const IndelEvent &a, const IndelEvent &b) {
                         if (a.support != b.support)
                             return a.support > b.support;
                         if (a.anchor != b.anchor)
                             return a.anchor < b.anchor;
                         if (a.isInsertion != b.isInsertion)
                             return a.isInsertion;
                         return a.lengthDelta() < b.lengthDelta();
                     });

    input.consensuses.push_back(window);
    input.events.push_back(IndelEvent{}); // placeholder for cons 0
    for (const IndelEvent &ev : events) {
        if (input.consensuses.size() >= kMaxConsensuses)
            break;
        BaseSeq cons = applyEvent(window, lo, ev);
        if (cons.size() > kMaxConsensusLen ||
            cons.size() < max_read_len) {
            continue;
        }
        input.consensuses.push_back(std::move(cons));
        input.events.push_back(ev);
    }

    // Attach read data by reference to the reads' blocks; reads
    // longer than the window cannot slide and are skipped (can only
    // happen for pathological windows).
    input.readIndices.reserve(indices.size());
    input.readSeqs.reserve(indices.size());
    for (uint32_t idx : indices) {
        const Read &read = reads[idx];
        if (read.length() > window.size())
            continue;
        input.readIndices.push_back(idx);
        input.readSeqs.push_back(read.sequence());
    }

    input.assertWithinLimits();
    return input;
}

} // namespace iracc
