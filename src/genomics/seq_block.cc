#include "genomics/seq_block.hh"

#include <atomic>
#include <cstring>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace iracc {

struct SeqBlock
{
    std::atomic<uint32_t> refs{1};

    uint8_t *
    bytes()
    {
        return reinterpret_cast<uint8_t *>(this + 1);
    }

    /** @return a block of @p n bytes, referenced once. */
    static SeqBlock *
    make(size_t n)
    {
        return new (::operator new(sizeof(SeqBlock) + n)) SeqBlock;
    }

    void acquire() { refs.fetch_add(1, std::memory_order_relaxed); }

    void
    drop()
    {
        if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            this->~SeqBlock();
            ::operator delete(this);
        }
    }
};

SeqSlice::SeqSlice(SeqBlock *b, const uint8_t *p, size_t n)
    : block(b), bytes(p), len(n)
{
}

SeqSlice::SeqSlice(const SeqSlice &o) noexcept
    : block(o.block), bytes(o.bytes), len(o.len)
{
    if (block)
        block->acquire();
}

SeqSlice::SeqSlice(SeqSlice &&o) noexcept
    : block(std::exchange(o.block, nullptr)),
      bytes(std::exchange(o.bytes, nullptr)),
      len(std::exchange(o.len, 0))
{
}

SeqSlice &
SeqSlice::operator=(const SeqSlice &o) noexcept
{
    if (o.block)
        o.block->acquire();
    if (block)
        block->drop();
    block = o.block;
    bytes = o.bytes;
    len = o.len;
    return *this;
}

SeqSlice &
SeqSlice::operator=(SeqSlice &&o) noexcept
{
    if (this != &o) {
        if (block)
            block->drop();
        block = std::exchange(o.block, nullptr);
        bytes = std::exchange(o.bytes, nullptr);
        len = std::exchange(o.len, 0);
    }
    return *this;
}

SeqSlice::~SeqSlice()
{
    if (block)
        block->drop();
}

SeqSlice
SeqSlice::copyOf(std::string_view bases, std::span<const uint8_t> quals)
{
    panic_if(bases.size() != quals.size(),
             "%zu bases but %zu qualities", bases.size(), quals.size());
    const size_t n = bases.size();
    if (n == 0)
        return {};
    SeqBlock *b = SeqBlock::make(2 * n);
    std::memcpy(b->bytes(), bases.data(), n);
    std::memcpy(b->bytes() + n, quals.data(), n);
    return {b, b->bytes(), n};
}

SeqArena::~SeqArena()
{
    if (current)
        current->drop();
}

SeqSlice
SeqArena::carve(size_t n, uint8_t **out)
{
    const size_t need = 2 * n;
    if (need == 0) {
        *out = nullptr;
        return {};
    }
    if (need > kBlockBytes) {
        SeqBlock *own = SeqBlock::make(need);
        *out = own->bytes();
        return {own, own->bytes(), n};
    }
    if (!current || used + need > kBlockBytes) {
        if (current)
            current->drop();
        current = SeqBlock::make(kBlockBytes);
        used = 0;
    }
    *out = current->bytes() + used;
    used += need;
    current->acquire();
    return {current, *out, n};
}

} // namespace iracc
