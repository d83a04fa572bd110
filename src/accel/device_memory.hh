/**
 * @file
 * Byte-accurate model of the FPGA-attached DDR4 memory.
 *
 * The host DMAs real bytes into this store and the IR units read
 * their input buffers and write their output buffers through it,
 * so the simulated system moves the same data the deployed system
 * would -- there is no back-channel between host and unit other
 * than memory contents and RoCC commands/responses.  Storage is a
 * page map so the modeled 16 GB address space costs only what is
 * touched.
 */

#ifndef IRACC_ACCEL_DEVICE_MEMORY_HH
#define IRACC_ACCEL_DEVICE_MEMORY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace iracc {

class FaultInjector;

/** Sparse byte-addressable device memory. */
class DeviceMemory
{
  public:
    /** @param size_bytes modeled capacity (default 16 GB: the one
     *         DDR4 channel the paper instantiates) */
    explicit DeviceMemory(uint64_t size_bytes = 16ull << 30);

    /** Copy bytes into device memory. */
    void write(uint64_t addr, const void *src, uint64_t len);

    /** Copy bytes out of device memory (untouched bytes read 0). */
    void read(uint64_t addr, void *dst, uint64_t len) const;

    /** Convenience: read into a fresh vector. */
    std::vector<uint8_t> readVec(uint64_t addr, uint64_t len) const;

    /**
     * CRC-32 (fault/fault.hh) of the bytes read() would copy out,
     * computed page by page in place; @p seed chains it after an
     * earlier checksum like crc32's.
     */
    uint32_t checksum(uint64_t addr, uint64_t len,
                      uint32_t seed = 0) const;

    /** Bump-allocate a region (64-byte aligned). */
    uint64_t allocate(uint64_t len);

    uint64_t capacity() const { return size; }
    uint64_t allocated() const { return nextFree; }
    uint64_t bytesWritten() const { return totalWritten; }

    /**
     * Attach a fault injector (null = fault-free): every
     * subsequent write() consults FaultInjector::corruptWrite and
     * applies the requested bit flip to the stored bytes, modeling
     * an in-flight or in-cell corruption the host can only detect
     * by checksumming what it reads back.
     */
    void attachFaults(FaultInjector *injector) { faults = injector; }

  private:
    static constexpr uint64_t kPageBits = 16; // 64 KiB pages
    static constexpr uint64_t kPageSize = 1ull << kPageBits;

    using Page = std::vector<uint8_t>;

    Page &pageFor(uint64_t addr);
    const Page *pageForRead(uint64_t addr) const;

    uint64_t size;
    uint64_t nextFree = 64; // keep address 0 unmapped
    uint64_t totalWritten = 0;
    std::unordered_map<uint64_t, Page> pages;
    FaultInjector *faults = nullptr;
};

} // namespace iracc

#endif // IRACC_ACCEL_DEVICE_MEMORY_HH
