#include "refine/duplicate_marker.hh"

#include <cstdint>
#include <unordered_map>

#include "util/logging.hh"

namespace iracc {

namespace {

/** Sum of base qualities: the Picard tie-breaking criterion. */
uint64_t
totalQuality(const Read &read)
{
    uint64_t sum = 0;
    for (uint8_t q : read.quals())
        sum += q;
    return sum;
}

/** Group key: contig, start, strand -- and for paired reads the
 *  mate position too (the full fragment signature, as Picard's
 *  MarkDuplicates uses for pairs). */
uint64_t
groupKey(const Read &read)
{
    uint64_t key = (static_cast<uint64_t>(
                        static_cast<uint32_t>(read.contig)) << 33) |
                   (static_cast<uint64_t>(read.pos) << 1) |
                   (read.reverse ? 1u : 0u);
    if (read.paired) {
        // Mix the mate position in (splitmix-style) so fragments
        // sharing one end but not the other stay distinct.
        uint64_t m = static_cast<uint64_t>(read.matePos + 1) *
                     0x9E3779B97F4A7C15ull;
        key ^= m ^ (m >> 29);
        key |= 1ull << 63;
    }
    return key;
}

} // anonymous namespace

uint64_t
markDuplicates(std::vector<Read> &reads)
{
    // best[key] = (read index, total quality) of the group winner.
    std::unordered_map<uint64_t, std::pair<size_t, uint64_t>> best;
    best.reserve(reads.size());

    uint64_t marked = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        Read &read = reads[i];
        read.duplicate = false;
        uint64_t key = groupKey(read);
        uint64_t qual = totalQuality(read);
        auto it = best.find(key);
        if (it == best.end()) {
            best.emplace(key, std::make_pair(i, qual));
        } else if (qual > it->second.second) {
            // New winner; demote the previous one.
            reads[it->second.first].duplicate = true;
            ++marked;
            it->second = {i, qual};
        } else {
            read.duplicate = true;
            ++marked;
        }
    }
    return marked;
}

} // namespace iracc
