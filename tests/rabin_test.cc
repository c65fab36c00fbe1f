// Tests for GF(2) polynomial arithmetic and Rabin fingerprinting.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "chunking/chunk.h"
#include "common/rng.h"
#include "rabin/gf2.h"
#include "rabin/rabin.h"

namespace shredder::rabin {
namespace {

TEST(Gf2, Degree) {
  EXPECT_EQ(gf2_degree(0), -1);
  EXPECT_EQ(gf2_degree(1), 0);
  EXPECT_EQ(gf2_degree(2), 1);
  EXPECT_EQ(gf2_degree(0b1011), 3);
  EXPECT_EQ(gf2_degree(Gf2Poly(1) << 64), 64);
  EXPECT_EQ(gf2_degree(Gf2Poly(1) << 127), 127);
}

TEST(Gf2, ModBasics) {
  // x^3 + x mod x^2 = x (x^3 = x*x^2; remainder is x).
  EXPECT_EQ(gf2_mod(0b1010, 0b100), Gf2Poly(0b10));
  // Anything mod itself is 0.
  EXPECT_EQ(gf2_mod(0b1011, 0b1011), Gf2Poly(0));
  // Degree of result < degree of modulus.
  SplitMix64 rng(1);
  for (int i = 0; i < 200; ++i) {
    const Gf2Poly a = rng.next();
    const Gf2Poly m = rng.next() | 0x100;
    EXPECT_LT(gf2_degree(gf2_mod(a, m)), gf2_degree(m));
  }
}

TEST(Gf2, ModByZeroThrows) {
  EXPECT_THROW(gf2_mod(5, 0), std::invalid_argument);
}

TEST(Gf2, MulCommutesAndDistributes) {
  SplitMix64 rng(2);
  for (int i = 0; i < 200; ++i) {
    const Gf2Poly a = rng.next();
    const Gf2Poly b = rng.next();
    const Gf2Poly c = rng.next();
    EXPECT_EQ(gf2_mul(a, b), gf2_mul(b, a));
    EXPECT_EQ(gf2_mul(a, b ^ c), gf2_mul(a, b) ^ gf2_mul(a, c));
  }
}

TEST(Gf2, MulIdentityAndZero) {
  SplitMix64 rng(3);
  for (int i = 0; i < 50; ++i) {
    const Gf2Poly a = rng.next();
    EXPECT_EQ(gf2_mul(a, 1), a);
    EXPECT_EQ(gf2_mul(a, 0), Gf2Poly(0));
  }
}

TEST(Gf2, MulByXIsShift) {
  EXPECT_EQ(gf2_mul(0b1011, 0b10), Gf2Poly(0b10110));
}

TEST(Gf2, MulRejectsWideOperands) {
  EXPECT_THROW(gf2_mul(Gf2Poly(1) << 64, 2), std::invalid_argument);
}

TEST(Gf2, MulModAssociates) {
  SplitMix64 rng(4);
  const Gf2Poly m = (Gf2Poly(1) << 64) | kDefaultPoly;
  for (int i = 0; i < 100; ++i) {
    const Gf2Poly a = rng.next();
    const Gf2Poly b = rng.next();
    const Gf2Poly c = rng.next();
    EXPECT_EQ(gf2_mulmod(gf2_mulmod(a, b, m), c, m),
              gf2_mulmod(a, gf2_mulmod(b, c, m), m));
  }
}

TEST(Gf2, GcdBasics) {
  EXPECT_EQ(gf2_gcd(0, 5), Gf2Poly(5));
  EXPECT_EQ(gf2_gcd(5, 0), Gf2Poly(5));
  EXPECT_EQ(gf2_gcd(6, 6), Gf2Poly(6));
  // gcd(x^2+x, x) = x  (x^2+x = x(x+1))
  EXPECT_EQ(gf2_gcd(0b110, 0b10), Gf2Poly(0b10));
}

TEST(Gf2, GcdDividesBoth) {
  SplitMix64 rng(5);
  for (int i = 0; i < 100; ++i) {
    const Gf2Poly a = rng.next() & 0xffffffff;
    const Gf2Poly b = rng.next() & 0xffffffff;
    if (a == 0 || b == 0) continue;
    const Gf2Poly g = gf2_gcd(a, b);
    EXPECT_EQ(gf2_mod(a, g), Gf2Poly(0));
    EXPECT_EQ(gf2_mod(b, g), Gf2Poly(0));
  }
}

TEST(Gf2, KnownIrreduciblePolynomials) {
  // x^2 + x + 1, x^3 + x + 1, x^4 + x + 1 are classic irreducibles.
  EXPECT_TRUE(gf2_is_irreducible(0b111));
  EXPECT_TRUE(gf2_is_irreducible(0b1011));
  EXPECT_TRUE(gf2_is_irreducible(0b10011));
  // The classic LBFS constant is irreducible as an explicit degree-63
  // polynomial.
  EXPECT_TRUE(gf2_is_irreducible(Gf2Poly(0xbfe6b8a5bf378d83ull)));
  // Our default degree-64 modulus (implicit leading bit).
  EXPECT_TRUE(gf2_is_irreducible((Gf2Poly(1) << 64) | kDefaultPoly));
}

TEST(Gf2, KnownReduciblePolynomials) {
  // x^2 + 1 = (x+1)^2 over GF(2).
  EXPECT_FALSE(gf2_is_irreducible(0b101));
  // x^2 + x = x(x+1).
  EXPECT_FALSE(gf2_is_irreducible(0b110));
  // Even constant term is divisible by x.
  EXPECT_FALSE(gf2_is_irreducible(0b1010));
}

TEST(Gf2, IrreducibilityMatchesBruteForce) {
  // Exhaustive check for all degree-2..10 polynomials against trial division
  // by every polynomial of degree <= deg(p)/2.
  for (unsigned p = 4; p < 2048; ++p) {
    const int half = gf2_degree(p) / 2;
    bool reducible = false;
    for (unsigned d = 2; gf2_degree(d) <= half; ++d) {
      if (gf2_mod(p, d) == 0) {
        reducible = true;
        break;
      }
    }
    EXPECT_EQ(gf2_is_irreducible(p), !reducible) << "poly " << p;
  }
}

TEST(Gf2, RandomIrreducibleHasRequestedDegree) {
  for (int degree : {8, 16, 32, 53, 64}) {
    const Gf2Poly p = gf2_random_irreducible(degree, 77);
    EXPECT_EQ(gf2_degree(p), degree);
    EXPECT_TRUE(gf2_is_irreducible(p));
  }
}

TEST(Gf2, RandomIrreducibleRejectsBadDegree) {
  EXPECT_THROW(gf2_random_irreducible(1, 1), std::invalid_argument);
  EXPECT_THROW(gf2_random_irreducible(65, 1), std::invalid_argument);
}

// --- Rabin tables / windows ---

TEST(RabinTables, RejectsBadArguments) {
  EXPECT_THROW(RabinTables(0), std::invalid_argument);
  // x^64 + x^2 + 1 is reducible (even weight).
  EXPECT_THROW(RabinTables(48, 0x5), std::invalid_argument);
}

TEST(RabinTables, FingerprintMatchesPolynomialDefinition) {
  // fp(data) must equal the data polynomial mod P computed with gf2_mod.
  const RabinTables tables(8);
  const auto data = random_bytes(16, 9);
  // Build the data polynomial in 128-bit space byte by byte, reducing as we
  // go (the data is longer than 64 bits).
  const Gf2Poly p = (Gf2Poly(1) << 64) | Gf2Poly(tables.poly());
  Gf2Poly ref = 0;
  for (auto b : data) {
    ref = gf2_mod((ref << 8) | Gf2Poly(b), p);
  }
  EXPECT_EQ(tables.fingerprint(as_bytes(data)),
            static_cast<std::uint64_t>(ref));
}

TEST(RabinWindow, SlidingEqualsDirectComputation) {
  // The fingerprint after sliding must equal fingerprinting the last w bytes
  // from scratch — the fundamental sliding-window property.
  const RabinTables tables(16);
  const auto data = random_bytes(200, 10);
  RabinWindow window(tables);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t fp = window.push(data[i]);
    if (i + 1 >= 16) {
      const ByteSpan last16 = ByteSpan(data).subspan(i + 1 - 16, 16);
      EXPECT_EQ(fp, tables.fingerprint(last16)) << "at position " << i;
    }
  }
}

TEST(RabinWindow, ResetRestartsCleanly) {
  const RabinTables tables(8);
  const auto data = random_bytes(64, 11);
  RabinWindow w1(tables), w2(tables);
  for (auto b : data) w1.push(b);
  w1.reset();
  std::uint64_t fp1 = 0, fp2 = 0;
  for (auto b : data) {
    fp1 = w1.push(b);
    fp2 = w2.push(b);
  }
  EXPECT_EQ(fp1, fp2);
}

TEST(RabinWindow, FullFlagTracksWindowFill) {
  const RabinTables tables(4);
  RabinWindow w(tables);
  EXPECT_FALSE(w.full());
  for (int i = 0; i < 3; ++i) {
    w.push(0xab);
    EXPECT_FALSE(w.full());
  }
  w.push(0xcd);
  EXPECT_TRUE(w.full());
}

TEST(RabinWindow, WindowContentDeterminesFingerprint) {
  // Identical windows reached via different prefixes give identical
  // fingerprints — the content-defined chunking property.
  const RabinTables tables(8);
  auto prefix_a = random_bytes(100, 12);
  auto prefix_b = random_bytes(37, 13);
  const auto window_content = random_bytes(8, 14);
  RabinWindow wa(tables), wb(tables);
  for (auto b : prefix_a) wa.push(b);
  for (auto b : prefix_b) wb.push(b);
  std::uint64_t fa = 0, fb = 0;
  for (auto b : window_content) {
    fa = wa.push(b);
    fb = wb.push(b);
  }
  EXPECT_EQ(fa, fb);
}

TEST(RabinTables, DifferentWindowsDifferentPopTables) {
  const RabinTables t8(8), t16(16);
  const auto data = random_bytes(64, 15);
  RabinWindow w8(t8), w16(t16);
  std::uint64_t f8 = 0, f16 = 0;
  for (auto b : data) {
    f8 = w8.push(b);
    f16 = w16.push(b);
  }
  EXPECT_NE(f8, f16);
}

// Parameterized sweep: sliding property holds across window sizes.
class RabinWindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RabinWindowSweep, SlidingMatchesScratch) {
  const std::size_t w = GetParam();
  const RabinTables tables(w);
  const auto data = random_bytes(3 * w + 17, 16 + w);
  RabinWindow window(tables);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t fp = window.push(data[i]);
    if (i + 1 >= w) {
      EXPECT_EQ(fp, tables.fingerprint(ByteSpan(data).subspan(i + 1 - w, w)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, RabinWindowSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 31, 32, 48,
                                           64, 100, 255, 256));

// Different irreducible polynomials produce different fingerprints but both
// satisfy the sliding property.
TEST(RabinTables, AlternatePolynomial) {
  const auto poly = gf2_random_irreducible(64, 123);
  const RabinTables alt(48, static_cast<std::uint64_t>(poly));
  const RabinTables def(48);
  const auto data = random_bytes(256, 17);
  EXPECT_NE(alt.fingerprint(as_bytes(data)), def.fingerprint(as_bytes(data)));
}

// --- Fused sliding-window operations (the scan_buffer fast path substrate) ---

class FusedSlideSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedSlideSweep, SlideEqualsPopThenPush) {
  const std::size_t w = GetParam();
  const RabinTables tables(w);
  const auto data = random_bytes(4 * w + 64, 40 + w);
  RabinWindow window(tables);
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t expect = window.push(data[i]);
    if (i < w) {
      fp = tables.push(fp, data[i]);
    } else {
      fp = tables.slide(fp, data[i], data[i - w]);
    }
    EXPECT_EQ(fp, expect) << "i=" << i;
  }
}

TEST_P(FusedSlideSweep, Slide4EqualsChainedSlides) {
  const std::size_t w = GetParam();
  const RabinTables tables(w);
  const auto data = random_bytes(4 * w + 64, 50 + w);
  const std::uint8_t* p = data.data();
  // Warm a full window, then compare every double 4-hop against eight
  // chained single slides (the exact decomposition scan_buffer uses).
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < w; ++i) fp = tables.push(fp, p[i]);
  for (std::size_t i = w; i + 8 <= data.size(); ++i) {
    std::uint64_t chained = fp;
    for (std::size_t k = 0; k < 8; ++k) {
      chained = tables.slide(chained, p[i + k], p[i + k - w]);
    }
    std::uint64_t in8 = 0;
    for (std::size_t k = 0; k < 8; ++k) in8 = (in8 << 8) | p[i + k];
    const std::uint64_t hop4 = tables.slide4(
        fp, static_cast<std::uint32_t>(in8 >> 32), p[i - w], p[i + 1 - w],
        p[i + 2 - w], p[i + 3 - w]);
    const std::uint64_t hop44 = tables.slide4(
        hop4, static_cast<std::uint32_t>(in8 & 0xffffffffu), p[i + 4 - w],
        p[i + 5 - w], p[i + 6 - w], p[i + 7 - w]);
    EXPECT_EQ(hop44, chained) << "i=" << i;
    fp = tables.slide(fp, p[i], p[i - w]);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, FusedSlideSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 48, 64, 256));

TEST(RabinTables, XPow8kMatchesByteShifts) {
  const RabinTables tables(48);
  // Naive reference: k repeated byte shifts == fingerprint of 0x01 followed
  // by k zero bytes.
  for (const std::uint64_t k : {0ull, 1ull, 2ull, 7ull, 8ull, 63ull, 64ull,
                                1000ull}) {
    ByteVec buf(static_cast<std::size_t>(k) + 1, 0);
    buf[0] = 1;
    EXPECT_EQ(tables.x_pow_8k(k), tables.fingerprint(as_bytes(buf)))
        << "k=" << k;
  }
  EXPECT_EQ(tables.x_pow_8k(0), 1u);
}

TEST(RabinTables, ConcatMatchesWholeBufferFingerprint) {
  const RabinTables tables(48);
  SplitMix64 rng(60);
  for (int i = 0; i < 20; ++i) {
    const auto a = random_bytes(1 + rng.next_below(300), 61 + i);
    const auto b = random_bytes(rng.next_below(300), 80 + i);
    ByteVec whole = a;
    whole.insert(whole.end(), b.begin(), b.end());
    EXPECT_EQ(tables.concat(tables.fingerprint(as_bytes(a)),
                            tables.fingerprint(as_bytes(b)), b.size()),
              tables.fingerprint(as_bytes(whole)));
  }
}

// --- Window-sum matrices (the vector scan's substrate) ---

// Scalar gf2p8affineqb with a zero constant: output bit r is the parity of
// x AND byte 7-r of the matrix.
std::uint8_t affine_byte(std::uint64_t matrix, std::uint8_t x) {
  unsigned out = 0;
  for (unsigned r = 0; r < 8; ++r) {
    const unsigned row = static_cast<std::uint8_t>(matrix >> (8 * (7 - r)));
    out |= static_cast<unsigned>(std::popcount(row & x) & 1) << r;
  }
  return static_cast<std::uint8_t>(out);
}

class PlaneMatrixSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlaneMatrixSweep, MatricesMatchPushBuiltTerms) {
  // plane_matrix(j, q) applied to byte b must give byte plane q of b's
  // fingerprint term at distance j: push(0, b) then j zero pushes.
  const std::size_t w = GetParam();
  const RabinTables tables(w);
  std::array<std::uint64_t, 256> term;
  for (unsigned b = 0; b < 256; ++b) {
    term[b] = tables.push(0, static_cast<std::uint8_t>(b));
  }
  for (std::size_t j = 0; j < w; ++j) {
    for (unsigned q = 0; q < RabinTables::kMatrixPlanes; ++q) {
      const std::uint64_t m = tables.plane_matrix(j, q);
      for (unsigned b = 0; b < 256; ++b) {
        ASSERT_EQ(affine_byte(m, static_cast<std::uint8_t>(b)),
                  static_cast<std::uint8_t>(term[b] >> (8 * q)))
            << "j=" << j << " q=" << q << " b=" << b;
      }
    }
    for (auto& t : term) t = tables.push(t, 0);
  }
}

TEST_P(PlaneMatrixSweep, WindowSumEqualsFingerprintPlanes) {
  // Linearity: XOR over distances of the matrix products is the window's
  // fingerprint, plane by plane.
  const std::size_t w = GetParam();
  const RabinTables tables(w);
  const auto data = random_bytes(w + 200, 70 + w);
  for (std::size_t end = w; end <= data.size(); end += 7) {
    const ByteSpan window = ByteSpan(as_bytes(data)).subspan(end - w, w);
    const std::uint64_t fp = tables.fingerprint(window);
    for (unsigned q = 0; q < RabinTables::kMatrixPlanes; ++q) {
      std::uint8_t sum = 0;
      for (std::size_t j = 0; j < w; ++j) {
        sum ^= affine_byte(tables.plane_matrix(j, q), window[w - 1 - j]);
      }
      EXPECT_EQ(sum, static_cast<std::uint8_t>(fp >> (8 * q)))
          << "end=" << end << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, PlaneMatrixSweep,
                         ::testing::Values(1, 2, 8, 9, 48,
                                           chunking::kMaxWindow));

TEST(RabinTables, ShortDistancesAreBytePlaneShifts) {
  // Below distance 8 a term is b << 8j with no reduction, so plane j holds
  // b itself and every other plane is zero. This is why the 13-bit mask's
  // two planes get nothing from distances 2..7.
  constexpr std::uint64_t kIdentity = 0x0102040810204080ull;
  const RabinTables tables(48);
  for (std::size_t j = 0; j < 8; ++j) {
    for (unsigned q = 0; q < RabinTables::kMatrixPlanes; ++q) {
      EXPECT_EQ(tables.plane_matrix(j, q), q == j ? kIdentity : 0u)
          << "j=" << j << " q=" << q;
    }
  }
  EXPECT_NE(tables.plane_matrix(8, 0), 0u);  // the first reduced term
}

}  // namespace
}  // namespace shredder::rabin
