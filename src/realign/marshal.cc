#include "realign/marshal.hh"

#include "fault/fault.hh"
#include "realign/limits.hh"
#include "util/logging.hh"

namespace iracc {

uint64_t
MarshalledTarget::totalInputBytes() const
{
    return consensusData.size() + readData.size() + qualData.size();
}

uint64_t
MarshalledTarget::totalOutputBytes() const
{
    // Output buffer #1 (1 B/read) + #2 (4 B/read).
    return static_cast<uint64_t>(numReads) * (1 + 4);
}

BaseSeq
MarshalledTarget::consensusAt(uint32_t i) const
{
    panic_if(i >= numConsensuses, "consensus %u out of range", i);
    size_t off = 0;
    for (uint32_t c = 0; c < i; ++c)
        off += consensusLengths[c];
    return BaseSeq(reinterpret_cast<const char *>(&consensusData[off]),
                   consensusLengths[i]);
}

BaseSeq
MarshalledTarget::readAt(uint32_t j) const
{
    panic_if(j >= numReads, "read %u out of range", j);
    size_t off = static_cast<size_t>(j) * kMaxReadLen;
    size_t len = 0;
    while (len < kMaxReadLen && readData[off + len] != 0)
        ++len;
    return BaseSeq(reinterpret_cast<const char *>(&readData[off]),
                   len);
}

QualSeq
MarshalledTarget::qualsAt(uint32_t j) const
{
    panic_if(j >= numReads, "read %u out of range", j);
    size_t off = static_cast<size_t>(j) * kMaxReadLen;
    size_t len = 0;
    while (len < kMaxReadLen && readData[off + len] != 0)
        ++len;
    return QualSeq(qualData.begin() + static_cast<long>(off),
                   qualData.begin() + static_cast<long>(off + len));
}

uint32_t
inputChecksum(const MarshalledTarget &target)
{
    uint32_t crc = crc32(target.consensusData.data(),
                         target.consensusData.size());
    crc = crc32(target.readData.data(), target.readData.size(),
                crc);
    return crc32(target.qualData.data(), target.qualData.size(),
                 crc);
}

std::vector<uint8_t>
outputBytes(const AccelTargetOutput &out)
{
    std::vector<uint8_t> bytes = out.realignFlags;
    bytes.reserve(bytes.size() + out.newPositions.size() * 4);
    for (uint32_t p : out.newPositions) {
        bytes.push_back(static_cast<uint8_t>(p));
        bytes.push_back(static_cast<uint8_t>(p >> 8));
        bytes.push_back(static_cast<uint8_t>(p >> 16));
        bytes.push_back(static_cast<uint8_t>(p >> 24));
    }
    return bytes;
}

uint32_t
outputChecksum(const AccelTargetOutput &out)
{
    std::vector<uint8_t> bytes = outputBytes(out);
    return crc32(bytes.data(), bytes.size());
}

void
marshalTargetInto(const IrTargetInput &input, MarshalledTarget &m)
{
    input.assertWithinLimits();

    m.numConsensuses = static_cast<uint32_t>(input.numConsensuses());
    m.numReads = static_cast<uint32_t>(input.numReads());
    m.targetStart = static_cast<uint32_t>(input.windowStart);

    // clear() keeps the existing capacity: a reused
    // MarshalledTarget marshals without touching the heap.
    m.consensusLengths.clear();
    m.consensusData.clear();
    for (const BaseSeq &cons : input.consensuses) {
        m.consensusLengths.push_back(
            static_cast<uint16_t>(cons.size()));
        m.consensusData.insert(m.consensusData.end(), cons.begin(),
                               cons.end());
    }

    // One copy per slot from the read's block, then the slot's
    // tail of 0x00 bytes: the end-of-read sentinel.
    const size_t slots = static_cast<size_t>(m.numReads) * kMaxReadLen;
    m.readData.clear();
    m.qualData.clear();
    m.readData.reserve(slots);
    m.qualData.reserve(slots);
    for (const SeqSlice &read : input.readSeqs) {
        const size_t n = read.size();
        const auto *bases =
            reinterpret_cast<const uint8_t *>(read.bases().data());
        const uint8_t *quals = read.quals().data();
        m.readData.insert(m.readData.end(), bases, bases + n);
        m.readData.insert(m.readData.end(), kMaxReadLen - n, 0);
        m.qualData.insert(m.qualData.end(), quals, quals + n);
        m.qualData.insert(m.qualData.end(), kMaxReadLen - n, 0);
    }
}

MarshalledTarget
marshalTarget(const IrTargetInput &input)
{
    MarshalledTarget m;
    marshalTargetInto(input, m);
    return m;
}

ConsensusDecision
outputToDecision(const IrTargetInput &input, uint32_t best_consensus,
                 const AccelTargetOutput &out)
{
    panic_if(out.realignFlags.size() != input.numReads() ||
             out.newPositions.size() != input.numReads(),
             "accelerator output size mismatch");
    ConsensusDecision d;
    d.bestConsensus = best_consensus;
    d.realign = out.realignFlags;
    d.newOffset.resize(input.numReads(), 0);
    for (size_t j = 0; j < input.numReads(); ++j) {
        if (!out.realignFlags[j])
            continue;
        uint32_t pos = out.newPositions[j];
        uint32_t start = static_cast<uint32_t>(input.windowStart);
        panic_if(pos < start, "accelerator position under window");
        d.newOffset[j] = pos - start;
    }
    return d;
}

} // namespace iracc
