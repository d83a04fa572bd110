/**
 * @file
 * Tests for the genomics data model: bases, qualities, CIGARs, and
 * read records, plus every SIMD kernel of the record scanners
 * against the scalar reference.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "genomics/base.hh"
#include "genomics/cigar.hh"
#include "genomics/quality.hh"
#include "genomics/read.hh"
#include "genomics/scan_kernels.hh"
#include "util/rng.hh"
#include "util/simd_kernel.hh"

namespace iracc {
namespace {

TEST(Base, CharRoundTrip)
{
    for (char c : {'A', 'C', 'G', 'T', 'N'})
        EXPECT_EQ(baseToChar(charToBase(c)), c);
    EXPECT_EQ(baseToChar(charToBase('a')), 'A');
}

TEST(Base, Validity)
{
    EXPECT_TRUE(isValidSequence("ACGTN"));
    EXPECT_TRUE(isValidSequence("acgt"));
    EXPECT_FALSE(isValidSequence("ACGU"));
    EXPECT_FALSE(isValidSequence("AC-GT"));
}

TEST(Base, Complement)
{
    EXPECT_EQ(complement('A'), 'T');
    EXPECT_EQ(complement('T'), 'A');
    EXPECT_EQ(complement('C'), 'G');
    EXPECT_EQ(complement('G'), 'C');
    EXPECT_EQ(complement('N'), 'N');
}

TEST(Base, ReverseComplementInvolution)
{
    Rng rng(3);
    for (int t = 0; t < 20; ++t) {
        BaseSeq s;
        for (int i = 0; i < 50; ++i)
            s.push_back(kConcreteBases[rng.below(4)]);
        EXPECT_EQ(reverseComplement(reverseComplement(s)), s);
    }
}

TEST(Quality, PhredErrorProb)
{
    EXPECT_NEAR(phredToErrorProb(10), 0.1, 1e-12);
    EXPECT_NEAR(phredToErrorProb(20), 0.01, 1e-12);
    EXPECT_NEAR(phredToErrorProb(60), 1e-6, 1e-15);
}

TEST(Quality, RoundTripThroughProb)
{
    for (uint8_t q = 0; q <= 60; ++q)
        EXPECT_EQ(errorProbToPhred(phredToErrorProb(q)), q);
}

TEST(Quality, AsciiEncoding)
{
    EXPECT_EQ(phredToAscii(0), '!');
    EXPECT_EQ(phredToAscii(40), 'I');
    EXPECT_EQ(asciiToPhred('I'), 40);
    QualSeq quals = {0, 10, 40, 60};
    EXPECT_EQ(asciiToQuals(qualsToAscii(quals)), quals);
}

TEST(Cigar, ParseAndPrint)
{
    Cigar c = Cigar::fromString("45M2I53M");
    EXPECT_EQ(c.size(), 3u);
    EXPECT_EQ(c.toString(), "45M2I53M");
    EXPECT_EQ(c.readLength(), 100u);
    EXPECT_EQ(c.referenceLength(), 98u);
    EXPECT_TRUE(c.hasIndel());
    EXPECT_EQ(c.indelBases(), 2u);
}

TEST(Cigar, DeletionLengths)
{
    Cigar c = Cigar::fromString("40M5D60M");
    EXPECT_EQ(c.readLength(), 100u);
    EXPECT_EQ(c.referenceLength(), 105u);
    EXPECT_EQ(c.alignedLength(), 100u);
}

TEST(Cigar, SoftClipConsumesReadOnly)
{
    Cigar c = Cigar::fromString("5S95M");
    EXPECT_EQ(c.readLength(), 100u);
    EXPECT_EQ(c.referenceLength(), 95u);
    EXPECT_FALSE(c.hasIndel());
}

TEST(Cigar, MergesAdjacentRuns)
{
    Cigar c({{10, CigarOp::Match}, {5, CigarOp::Match},
             {0, CigarOp::Insert}, {3, CigarOp::Delete}});
    EXPECT_EQ(c.toString(), "15M3D");
}

TEST(Cigar, MergesInPlaceKeepingOrder)
{
    Cigar c({{0, CigarOp::Match}, {2, CigarOp::SoftClip},
             {3, CigarOp::SoftClip}, {4, CigarOp::Match},
             {0, CigarOp::Delete}, {6, CigarOp::Match},
             {1, CigarOp::Insert}});
    EXPECT_EQ(c.toString(), "5S10M1I");
    EXPECT_TRUE(Cigar({{0, CigarOp::Match}}).empty());
}

TEST(Cigar, TryFromStringRejectsUint32Overflow)
{
    Cigar c = Cigar::simpleMatch(7);
    // An element, a merged run, the read consumption or the
    // reference consumption past uint32 is malformed, not wrapped.
    for (const char *s : {"4294967296M", "4294967295M2M",
                          "4294967295M2I", "4294967295S1I",
                          "4294967295D1M", "2147483648I2147483648S"}) {
        EXPECT_FALSE(Cigar::tryFromString(s, &c)) << s;
        EXPECT_EQ(c, Cigar::simpleMatch(7)) << s; // untouched
    }
    // At the limit itself every total still fits.
    ASSERT_TRUE(Cigar::tryFromString("4294967294M1I", &c));
    EXPECT_EQ(c.readLength(), 4294967295u);
    ASSERT_TRUE(Cigar::tryFromString("4294967295D4294967295I", &c));
    EXPECT_EQ(c.referenceLength(), 4294967295u);
    EXPECT_EQ(c.readLength(), 4294967295u);
}

TEST(Cigar, EmptyIsStar)
{
    EXPECT_EQ(Cigar().toString(), "*");
    EXPECT_TRUE(Cigar::fromString("*").empty());
}

TEST(Cigar, RoundTripProperty)
{
    Rng rng(5);
    for (int t = 0; t < 50; ++t) {
        std::vector<CigarElem> elems;
        CigarOp prev = CigarOp::Delete;
        int n = static_cast<int>(1 + rng.below(6));
        for (int i = 0; i < n; ++i) {
            CigarOp op;
            do {
                op = static_cast<CigarOp>(rng.below(4));
            } while (op == prev);
            prev = op;
            elems.push_back(
                {static_cast<uint32_t>(1 + rng.below(50)), op});
        }
        Cigar c(elems);
        EXPECT_EQ(Cigar::fromString(c.toString()), c);
    }
}

TEST(Read, EndPosAndOverlap)
{
    Read r;
    r.name = "r1";
    r.bases = BaseSeq(100, 'A');
    r.quals.assign(100, 30);
    r.contig = 2;
    r.pos = 1000;
    r.cigar = Cigar::simpleMatch(100);

    EXPECT_EQ(r.endPos(), 1100);
    EXPECT_TRUE(r.overlaps(2, 1050, 1060));  // spans interval
    EXPECT_TRUE(r.overlaps(2, 950, 1001));   // start inside
    EXPECT_TRUE(r.overlaps(2, 1099, 1200));  // end inside
    EXPECT_FALSE(r.overlaps(2, 1100, 1200)); // ends exactly before
    EXPECT_FALSE(r.overlaps(2, 900, 1000));  // starts exactly after
    EXPECT_FALSE(r.overlaps(1, 1000, 1100)); // wrong contig
}

TEST(Read, ValidityChecks)
{
    Read r;
    r.name = "ok";
    r.bases = "ACGT";
    r.quals = {30, 30, 30, 30};
    r.cigar = Cigar::simpleMatch(4);
    r.pos = 0;
    EXPECT_NO_FATAL_FAILURE(r.assertValid());

    Read bad = r;
    bad.cigar = Cigar::simpleMatch(5);
    EXPECT_DEATH(bad.assertValid(), "CIGAR");
}

/**
 * Every finder of genomics/scan_kernels.hh equals the scalar
 * reference with each byte <= 0x21 or >= 0x7e, and a rotating
 * sample of the printable ones, planted at every index of every
 * length up to 100, so word (8) and vector (32) boundaries and the
 * overlapping tails are all crossed.
 */
TEST(ScanKernels, FindersMatchScalarAtEveryIndex)
{
    Rng rng(17);
    for (size_t n = 1; n <= 100; ++n) {
        std::string bases(n, 'A'), quals(n, 'I'), text(n, 'x');
        for (size_t i = 0; i < n; ++i) {
            bases[i] = "ACGTNacgtn"[rng.below(10)];
            quals[i] = static_cast<char>('!' + rng.below(94));
            text[i] = static_cast<char>('!' + rng.below(94));
        }
        for (size_t k = 0; k < n; ++k) {
            for (int v = 0; v < 256; ++v) {
                const uint8_t b = static_cast<uint8_t>(v);
                if (b % 7 != k % 7 && b > 0x21 && b < 0x7e)
                    continue; // sample the ordinary printable bytes
                std::string bs = bases, qs = quals, ts = text;
                bs[k] = qs[k] = ts[k] = static_cast<char>(b);
                const size_t from = rng.below(n + 1);
                const size_t wantBase =
                    findInvalidBase(bs.data(), n, SimdKernel::Scalar);
                const size_t wantQual = findInvalidQualityChar(
                    qs.data(), n, SimdKernel::Scalar);
                const size_t wantLow = findLowByte(ts.data(), n, from,
                                                   SimdKernel::Scalar);
                const bool qualOk = b >= '!' && b <= '~';
                ASSERT_EQ(wantBase, isValidBaseChar(bs[k]) ? n : k);
                ASSERT_EQ(wantQual, qualOk ? n : k);
                ASSERT_EQ(wantLow, b <= 0x20 && k >= from ? k : n);
                for (SimdKernel kernel : supportedSimdKernels()) {
                    auto where = [&] {
                        return std::string(simdKernelName(kernel)) +
                               " n=" + std::to_string(n) +
                               " k=" + std::to_string(k) +
                               " byte=" + std::to_string(b) +
                               " from=" + std::to_string(from);
                    };
                    ASSERT_EQ(findInvalidBase(bs.data(), n, kernel),
                              wantBase) << where();
                    ASSERT_EQ(findInvalidQualityChar(qs.data(), n,
                                                     kernel),
                              wantQual) << where();
                    ASSERT_EQ(findLowByte(ts.data(), n, from, kernel),
                              wantLow) << where();
                }
            }
        }
    }
}

TEST(ScanKernels, QualityTransformsMatchScalar)
{
    Rng rng(23);
    for (size_t n = 0; n <= 100; ++n) {
        QualSeq q(n);
        for (auto &v : q)
            v = static_cast<uint8_t>(rng.below(kMaxPhred + 1));
        const std::string text = qualsToAscii(q);
        for (SimdKernel kernel : supportedSimdKernels()) {
            const std::string what = std::string(simdKernelName(kernel)) +
                                     " n=" + std::to_string(n);
            std::string enc(n, '\0');
            EXPECT_TRUE(encodeQualityChars(q.data(), n, enc.data(),
                                           kernel)) << what;
            EXPECT_EQ(enc, text) << what;
            QualSeq dec(n);
            decodeQualityChars(text.data(), n, dec.data(), kernel);
            EXPECT_EQ(dec, q) << what;
            // Any score above kMaxPhred, at any index, is reported.
            for (size_t k = 0; k < n; ++k) {
                for (uint8_t bad : {uint8_t(kMaxPhred + 1),
                                    uint8_t(0x7f), uint8_t(0x80),
                                    uint8_t(0xdf), uint8_t(0xff)}) {
                    QualSeq b = q;
                    b[k] = bad;
                    EXPECT_FALSE(encodeQualityChars(b.data(), n,
                                                    enc.data(), kernel))
                        << what << " k=" << k << " q=" << int(bad);
                }
            }
        }
    }
}

/** The dispatched public checks agree under every kernel. */
TEST(ScanKernels, PublicChecksFollowTheActiveKernel)
{
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel pin(kernel);
        const std::string longSeq(70, 'g');
        EXPECT_TRUE(isValidSequence(longSeq));
        EXPECT_FALSE(isValidSequence(longSeq + "U"));
        EXPECT_FALSE(isValidSequence(std::string("\x80") + longSeq));
        QualSeq q = {1, 2, 3};
        EXPECT_TRUE(tryAsciiToQuals(std::string(40, '5'), &q));
        EXPECT_EQ(q, QualSeq(40, '5' - 33));
        EXPECT_FALSE(tryAsciiToQuals(std::string(40, '5') + " ", &q));
        EXPECT_EQ(q, QualSeq(40, '5' - 33)); // untouched on failure
        EXPECT_EQ(qualsToAscii(QualSeq(50, kMaxPhred)),
                  std::string(50, '~'));
    }
}

TEST(ScanKernelsDeathTest, QualsToAsciiNamesTheFirstBadScore)
{
    for (SimdKernel kernel : supportedSimdKernels()) {
        ScopedSimdKernel pin(kernel);
        for (size_t k : {0, 5, 31, 40, 63}) {
            QualSeq q(64, 30);
            q[k] = 94;
            if (k < 63)
                q[63] = 200;
            EXPECT_DEATH(qualsToAscii(q),
                         "Phred score 94 exceeds max 93")
                << simdKernelName(kernel) << " k=" << k;
        }
    }
}

TEST(GenomePos, Ordering)
{
    GenomePos a{0, 100}, b{0, 200}, c{1, 0};
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b < c);
    EXPECT_FALSE(c < a);
    EXPECT_TRUE(a == (GenomePos{0, 100}));
}

} // namespace
} // namespace iracc
