#include "align/seed_index.hh"

namespace iracc {

namespace {

class SuffixArrayIndex : public SeedIndex
{
  public:
    explicit SuffixArrayIndex(const BaseSeq &text) : sa(text) {}

    SaRange
    find(std::string_view pattern) const override
    {
        return sa.find(pattern);
    }

    int64_t
    position(int64_t rank) const override
    {
        return sa.position(rank);
    }

    int64_t
    longestPrefixMatch(std::string_view pattern, size_t offset,
                       SaRange &range) const override
    {
        return sa.longestPrefixMatch(pattern, offset, range);
    }

  private:
    SuffixArray sa;
};

class FmSeedIndex : public SeedIndex
{
  public:
    explicit FmSeedIndex(const BaseSeq &text) : fm(text) {}

    SaRange
    find(std::string_view pattern) const override
    {
        return fm.find(pattern);
    }

    int64_t
    position(int64_t rank) const override
    {
        return fm.locate(rank);
    }

    int64_t
    longestPrefixMatch(std::string_view pattern, size_t offset,
                       SaRange &range) const override
    {
        return fm.longestPrefixMatch(pattern, offset, range);
    }

  private:
    FmIndex fm;
};

} // anonymous namespace

std::unique_ptr<SeedIndex>
makeSeedIndex(SeedIndexKind kind, const BaseSeq &text)
{
    switch (kind) {
      case SeedIndexKind::SuffixArray:
        return std::make_unique<SuffixArrayIndex>(text);
      case SeedIndexKind::FmIndex:
        return std::make_unique<FmSeedIndex>(text);
    }
    return nullptr;
}

} // namespace iracc
