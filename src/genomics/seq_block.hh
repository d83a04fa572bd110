/**
 * @file
 * Shared, immutable storage for the bases and qualities of reads.
 *
 * A read does not own its bytes: they live in a reference-counted
 * block, and the read holds a SeqSlice -- a counted reference to the
 * block plus the slice's place in it.  The SAM-lite reader appends
 * every record to one fixed-size block (SeqArena) until it is full,
 * so parsing makes one allocation per kBlockBytes of sequence, not
 * one per read; copying a read copies the reference, and a block is
 * freed with the last slice of it.
 *
 * Bytes are written once, before the slice that covers them exists,
 * and never change afterwards: slices on any number of threads read
 * a block without locking, and only the count is atomic.
 */

#ifndef IRACC_GENOMICS_SEQ_BLOCK_HH
#define IRACC_GENOMICS_SEQ_BLOCK_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace iracc {

/** A block's header; its bytes follow it in the same allocation. */
struct SeqBlock;

/** One read's n bases followed by its n qualities in a block. */
class SeqSlice
{
  public:
    SeqSlice() = default;
    SeqSlice(const SeqSlice &o) noexcept;
    SeqSlice(SeqSlice &&o) noexcept;
    SeqSlice &operator=(const SeqSlice &o) noexcept;
    SeqSlice &operator=(SeqSlice &&o) noexcept;
    ~SeqSlice();

    /**
     * Copy @p bases and @p quals into a block of their own (none
     * when both are empty).  Panics when their lengths differ.
     */
    static SeqSlice copyOf(std::string_view bases,
                           std::span<const uint8_t> quals);

    size_t size() const { return len; }

    std::string_view
    bases() const
    {
        return {reinterpret_cast<const char *>(bytes), len};
    }

    std::span<const uint8_t>
    quals() const
    {
        return {bytes ? bytes + len : nullptr, len};
    }

  private:
    friend class SeqArena;

    SeqSlice(SeqBlock *b, const uint8_t *p, size_t n);

    SeqBlock *block = nullptr;
    const uint8_t *bytes = nullptr;
    size_t len = 0;
};

/**
 * Carves slices out of fixed-size blocks in order, starting a new
 * block when the current one cannot hold the next slice.  A slice
 * larger than a block gets a block of its own.  Not thread-safe: one
 * arena per reader.
 */
class SeqArena
{
  public:
    /** Bytes of every shared block. */
    static constexpr size_t kBlockBytes = 64u << 10;

    SeqArena() = default;
    SeqArena(const SeqArena &) = delete;
    SeqArena &operator=(const SeqArena &) = delete;
    ~SeqArena();

    /**
     * Reserve room for @p n bases and @p n qualities.  @p out gets
     * the 2n writable bytes, bases first; they must be filled before
     * the returned slice is copied or read.
     */
    SeqSlice carve(size_t n, uint8_t **out);

  private:
    SeqBlock *current = nullptr;
    size_t used = 0;
};

} // namespace iracc

#endif // IRACC_GENOMICS_SEQ_BLOCK_HH
