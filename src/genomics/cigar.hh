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
#include <string>
#include <string_view>
#include <vector>

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
 */
class Cigar
{
  public:
    Cigar() = default;

    /** Build from elements; merges adjacent same-op runs in place
     *  and drops zero-length ones. */
    explicit Cigar(std::vector<CigarElem> elems);

    /** Parse a SAM CIGAR string like "45M2I53M"; panics on
     *  malformed input (internal callers with trusted data). */
    static Cigar fromString(const std::string &s);

    /**
     * Non-terminating parse for untrusted input (the streaming SAM
     * readers).  Rejects unknown ops, ops without a length, a
     * trailing length, and any element length, merged run, read
     * consumption or reference consumption that overflows uint32 --
     * an unchecked accumulator would wrap silently on inputs like
     * "4294967296M" or "4294967295M2M".  Makes one allocation.
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

    bool empty() const { return elems.empty(); }
    size_t size() const { return elems.size(); }
    const CigarElem &operator[](size_t i) const { return elems.at(i); }

    const std::vector<CigarElem> &elements() const { return elems; }

    bool operator==(const Cigar &o) const { return elems == o.elems; }

  private:
    std::vector<CigarElem> elems;
};

} // namespace iracc

#endif // IRACC_GENOMICS_CIGAR_HH
