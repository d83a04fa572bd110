/**
 * @file
 * Heap allocations made by parsing SAM-lite.  A parsed read makes
 * none of its own: its CIGAR (up to Cigar::kInline elements) and its
 * name (up to the string's inline buffer) live in the Read, and its
 * bases and qualities are appended to the reader's shared 64 KiB
 * block (genomics/seq_block.hh).  What is left per parse is one
 * allocation per block, the read vector's growth and the reader's
 * own buffers.
 *
 * The global operator new is replaced here with a counting one, so
 * this test is a binary of its own: the counter must not see (or
 * slow down) any other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "genomics/io.hh"
#include "genomics/stream_io.hh"

namespace {

std::atomic<uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace iracc {
namespace {

constexpr size_t kRecords = 10000;

/** Allocations fewer than one per this many records pass. */
constexpr size_t kRecordsPerAllocation = 64;

ReferenceGenome
twoContigs()
{
    ReferenceGenome ref;
    ref.addContig("chrA", BaseSeq(5000, 'A'));
    ref.addContig("chrB", BaseSeq(5000, 'C'));
    return ref;
}

/**
 * kRecords contig-grouped 100-base records with names of up to 15
 * characters.  Most CIGARs have one element, one in forty has three
 * (the shapes of a simulated genome), so none leaves the inline
 * storage.
 */
std::string
samLiteText()
{
    std::string text;
    for (size_t i = 0; i < kRecords; ++i) {
        const bool indel = i % 40 == 0;
        text += "read" + std::to_string(i);
        text += i < kRecords / 2 ? "\tchrA\t" : "\tchrB\t";
        text += std::to_string(1 + i % 4000) + "\t60\t";
        text += indel ? "50M2I48M" : "100M";
        text += "\t0\t";
        for (size_t b = 0; b < 100; ++b)
            text += "ACGT"[(i + b) % 4];
        text += '\t';
        for (size_t b = 0; b < 100; ++b)
            text += static_cast<char>('#' + (i * 7 + b) % 40);
        text += '\n';
    }
    return text;
}

TEST(ReadAllocations, ReadSamLiteAllocatesPerBlockNotPerRead)
{
    const ReferenceGenome ref = twoContigs();
    std::istringstream in(samLiteText());
    const uint64_t before = gAllocations.load();
    std::vector<Read> reads = readSamLite(in, ref);
    const uint64_t made = gAllocations.load() - before;
    ASSERT_EQ(reads.size(), kRecords);
    EXPECT_LT(made, kRecords / kRecordsPerAllocation)
        << made << " allocations for " << kRecords << " records";
    EXPECT_EQ(reads[40].cigar.toString(), "50M2I48M");
}

TEST(ReadAllocations, BatchSourceAllocatesPerBlockNotPerRead)
{
    const ReferenceGenome ref = twoContigs();
    std::istringstream in(samLiteText());
    std::vector<std::vector<Read>> batches;
    batches.reserve(2);
    const uint64_t before = gAllocations.load();
    {
        SamLiteBatchSource source(in, ref);
        int32_t contig = -1;
        std::vector<Read> reads;
        ParseError err;
        while (source.nextBatch(&contig, &reads, &err) ==
               StreamStatus::Record)
            batches.push_back(std::move(reads));
        EXPECT_TRUE(err.ok()) << err.describe();
    }
    const uint64_t made = gAllocations.load() - before;
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_EQ(batches[0].size() + batches[1].size(), kRecords);
    EXPECT_LT(made, kRecords / kRecordsPerAllocation)
        << made << " allocations for " << kRecords << " records";
}

} // namespace
} // namespace iracc
