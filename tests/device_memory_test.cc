/**
 * @file
 * Tests for the byte-accurate device memory model.
 */

#include <gtest/gtest.h>

#include "accel/device_memory.hh"
#include "fault/fault.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

TEST(DeviceMemory, WriteReadRoundTrip)
{
    DeviceMemory mem(1 << 20);
    std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.write(100, data.data(), data.size());
    auto back = mem.readVec(100, data.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(mem.bytesWritten(), data.size());
}

TEST(DeviceMemory, UntouchedBytesReadZero)
{
    DeviceMemory mem(1 << 20);
    auto zeros = mem.readVec(5000, 16);
    for (uint8_t b : zeros)
        EXPECT_EQ(b, 0u);
}

TEST(DeviceMemory, CrossPageTransfers)
{
    DeviceMemory mem(1 << 20);
    // Straddle the 64 KiB page boundary.
    std::vector<uint8_t> data(300);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    uint64_t addr = (1 << 16) - 150;
    mem.write(addr, data.data(), data.size());
    EXPECT_EQ(mem.readVec(addr, data.size()), data);
    // Partial re-read across the boundary.
    auto mid = mem.readVec(addr + 100, 100);
    for (size_t i = 0; i < mid.size(); ++i)
        EXPECT_EQ(mid[i], data[100 + i]);
}

TEST(DeviceMemory, AllocatorAlignsAndAdvances)
{
    DeviceMemory mem(1 << 20);
    uint64_t a = mem.allocate(100);
    uint64_t b = mem.allocate(1);
    uint64_t c = mem.allocate(64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 64, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GE(c, b + 1);
}

TEST(DeviceMemory, CapacityEnforced)
{
    DeviceMemory mem(4096);
    uint8_t byte = 0xAB;
    EXPECT_DEATH(mem.write(4096, &byte, 1), "capacity");
    EXPECT_DEATH((void)mem.allocate(1 << 20), "exhausted");
}

TEST(DeviceMemory, OverwriteTakesEffect)
{
    DeviceMemory mem(1 << 20);
    uint32_t v1 = 0xDEADBEEF, v2 = 0x12345678;
    mem.write(64, &v1, 4);
    mem.write(64, &v2, 4);
    uint32_t back = 0;
    mem.read(64, &back, 4);
    EXPECT_EQ(back, v2);
}

TEST(DeviceMemory, RandomizedSparseAccess)
{
    DeviceMemory mem(64 << 20);
    Rng rng(9);
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> writes;
    for (int i = 0; i < 50; ++i) {
        uint64_t addr = rng.below((64 << 20) - 4096);
        // Keep blocks disjoint by spacing them deterministically.
        addr = (addr / 8192) * 8192;
        std::vector<uint8_t> block(1 + rng.below(2000));
        for (auto &b : block)
            b = static_cast<uint8_t>(rng.next());
        mem.write(addr, block.data(), block.size());
        writes.emplace_back(addr, std::move(block));
    }
    // Later writes to the same 8 KiB slot win; verify the last one
    // for each address.
    std::unordered_map<uint64_t, const std::vector<uint8_t> *> last;
    for (const auto &[addr, block] : writes)
        last[addr] = &block;
    for (const auto &[addr, block] : last) {
        auto got = mem.readVec(addr, block->size());
        // Only compare when no longer write overlapped afterwards;
        // overlapping writes share the prefix of the last write.
        EXPECT_EQ(got, *block);
    }
}

TEST(DeviceMemory, ChecksumInPlaceMatchesReadBack)
{
    // A range that starts mid-page, crosses a written page into an
    // untouched one and ends in a third: the in-place checksum must
    // equal the CRC of what read() copies out, and chain like it.
    DeviceMemory mem(1 << 20);
    Rng rng(12);
    std::vector<uint8_t> block(70000);
    for (auto &b : block)
        b = static_cast<uint8_t>(rng.next());
    mem.write(60000, block.data(), block.size());
    const uint64_t addr = 50001;
    const uint64_t len = 3 * 65536 - 7;
    std::vector<uint8_t> copy = mem.readVec(addr, len);
    EXPECT_EQ(mem.checksum(addr, len), crc32(copy.data(), len));
    EXPECT_EQ(mem.checksum(addr + 100, 200, mem.checksum(addr, 100)),
              crc32(copy.data(), 300));
    EXPECT_EQ(mem.checksum(addr, 0, 77u), 77u);
}

} // namespace
} // namespace iracc
