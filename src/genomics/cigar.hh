/**
 * @file
 * CIGAR alignment description (SAM-style).
 *
 * A CIGAR summarizes how a read aligns against the reference as a
 * run-length list of operations.  IRACC uses the subset needed by
 * the realignment pipeline: M (match/mismatch), I (insertion to the
 * reference), D (deletion from the reference), and S (soft clip).
 */

#ifndef IRACC_GENOMICS_CIGAR_HH
#define IRACC_GENOMICS_CIGAR_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

namespace iracc {

/** CIGAR operation codes. */
enum class CigarOp : uint8_t {
    Match,    ///< 'M': consumes read and reference
    Insert,   ///< 'I': consumes read only
    Delete,   ///< 'D': consumes reference only
    SoftClip, ///< 'S': consumes read only, bases present but unaligned
};

/** @return the SAM character for an op. */
char cigarOpChar(CigarOp op);

/** @return the op for a SAM character. */
CigarOp charToCigarOp(char c);

/** One run-length element of a CIGAR. */
struct CigarElem
{
    uint32_t length;
    CigarOp op;

    bool
    operator==(const CigarElem &o) const
    {
        return length == o.length && op == o.op;
    }
};

/**
 * A full CIGAR string with the derived quantities the pipeline
 * needs.  Adjacent same-op elements are merged on construction.
 *
 * Up to kInline elements are stored in the object itself, so the
 * CIGARs of almost every read (one run of M, or M/indel/M) make no
 * heap allocation; longer ones move to the heap.
 */
class Cigar
{
  public:
    /** Elements held without a heap allocation. */
    static constexpr uint32_t kInline = 3;

    Cigar() = default;

    /** Build from elements; merges adjacent same-op runs and drops
     *  zero-length ones. */
    explicit Cigar(std::span<const CigarElem> elems);
    explicit Cigar(std::initializer_list<CigarElem> elems)
        : Cigar(std::span<const CigarElem>(elems.begin(), elems.size()))
    {
    }

    Cigar(const Cigar &o);
    Cigar(Cigar &&o) noexcept;
    Cigar &operator=(const Cigar &o);
    Cigar &operator=(Cigar &&o) noexcept;
    ~Cigar() { release(); }

    /** Parse a SAM CIGAR string like "45M2I53M"; panics on
     *  malformed input (internal callers with trusted data). */
    static Cigar fromString(const std::string &s);

    /**
     * Non-terminating parse for untrusted input (the streaming SAM
     * readers).  Rejects unknown ops, ops without a length, a
     * trailing length, and any element length, merged run, read
     * consumption or reference consumption that overflows uint32 --
     * an unchecked accumulator would wrap silently on inputs like
     * "4294967296M" or "4294967295M2M".  Allocates only for more
     * than kInline elements.
     * @return false without touching @p out on malformed input.
     */
    static bool tryFromString(std::string_view s, Cigar *out);

    /** Convenience: a pure-match CIGAR of the given read length. */
    static Cigar simpleMatch(uint32_t read_length);

    /** @return SAM text form; "*" when empty. */
    std::string toString() const;

    /** @return number of reference bases consumed. */
    uint32_t referenceLength() const;

    /** @return number of read bases consumed (incl. clips). */
    uint32_t readLength() const;

    /** @return number of aligned (M) read bases. */
    uint32_t alignedLength() const;

    /** @return true if any element is an insertion or deletion. */
    bool hasIndel() const;

    /** @return total inserted plus deleted base count. */
    uint32_t indelBases() const;

    bool empty() const { return count == 0; }
    size_t size() const { return count; }
    /** Panics when @p i is out of range. */
    const CigarElem &operator[](size_t i) const;

    std::span<const CigarElem>
    elements() const
    {
        return {data(), count};
    }

    bool operator==(const Cigar &o) const;

  private:
    bool onHeap() const { return cap > kInline; }
    const CigarElem *data() const { return onHeap() ? heap : inl; }
    CigarElem *data() { return onHeap() ? heap : inl; }

    /** Make room for @p n elements, keeping the current ones. */
    void reserve(size_t n);

    /** Append one element, merging it into a same-op last run and
     *  dropping it when its length is zero. */
    void append(CigarElem e);

    /** Free the heap storage, if any, and empty the CIGAR. */
    void release();

    uint32_t count = 0;
    /** Element capacity; above kInline the elements are on the
     *  heap. */
    uint32_t cap = kInline;
    union {
        CigarElem inl[kInline] = {};
        CigarElem *heap;
    };
};

} // namespace iracc

#endif // IRACC_GENOMICS_CIGAR_HH
