#include "accel/device_memory.hh"

#include <cstring>

#include "fault/fault.hh"
#include "util/logging.hh"

namespace iracc {

DeviceMemory::DeviceMemory(uint64_t size_bytes) : size(size_bytes)
{
}

DeviceMemory::Page &
DeviceMemory::pageFor(uint64_t addr)
{
    Page &page = pages[addr >> kPageBits];
    if (page.empty())
        page.assign(kPageSize, 0);
    return page;
}

const DeviceMemory::Page *
DeviceMemory::pageForRead(uint64_t addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? nullptr : &it->second;
}

void
DeviceMemory::write(uint64_t addr, const void *src, uint64_t len)
{
    panic_if(addr + len > size,
             "device memory write past capacity (addr 0x%llx + "
             "%llu > %llu)",
             static_cast<unsigned long long>(addr),
             static_cast<unsigned long long>(len),
             static_cast<unsigned long long>(size));
    const uint8_t *bytes = static_cast<const uint8_t *>(src);
    totalWritten += len;
    uint64_t flip_addr = 0;
    uint8_t flip_mask = 0;
    if (faults) {
        uint64_t byte_off;
        if (faults->corruptWrite(addr, len, &byte_off, &flip_mask))
            flip_addr = addr + byte_off;
    }
    while (len > 0) {
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        std::memcpy(pageFor(addr).data() + off, bytes, chunk);
        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
    if (flip_mask)
        pageFor(flip_addr)[flip_addr & (kPageSize - 1)] ^= flip_mask;
}

void
DeviceMemory::read(uint64_t addr, void *dst, uint64_t len) const
{
    panic_if(addr + len > size, "device memory read past capacity");
    uint8_t *bytes = static_cast<uint8_t *>(dst);
    while (len > 0) {
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        const Page *page = pageForRead(addr);
        if (page)
            std::memcpy(bytes, page->data() + off, chunk);
        else
            std::memset(bytes, 0, chunk);
        addr += chunk;
        bytes += chunk;
        len -= chunk;
    }
}

std::vector<uint8_t>
DeviceMemory::readVec(uint64_t addr, uint64_t len) const
{
    std::vector<uint8_t> out(len);
    read(addr, out.data(), len);
    return out;
}

uint32_t
DeviceMemory::checksum(uint64_t addr, uint64_t len, uint32_t seed) const
{
    panic_if(addr + len > size, "device memory read past capacity");
    // An untouched page reads as zeros.
    static const uint8_t kZeroPage[kPageSize] = {};
    uint32_t crc = seed;
    while (len > 0) {
        uint64_t off = addr & (kPageSize - 1);
        uint64_t chunk = std::min(len, kPageSize - off);
        const Page *page = pageForRead(addr);
        crc = crc32(page ? page->data() + off : kZeroPage, chunk, crc);
        addr += chunk;
        len -= chunk;
    }
    return crc;
}

uint64_t
DeviceMemory::allocate(uint64_t len)
{
    uint64_t addr = (nextFree + 63) & ~63ull;
    panic_if(addr + len > size, "device memory exhausted");
    nextFree = addr + len;
    return addr;
}

} // namespace iracc
