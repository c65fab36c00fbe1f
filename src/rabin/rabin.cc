#include "rabin/rabin.h"

#include <stdexcept>

#include "rabin/gf2.h"

namespace shredder::rabin {

namespace {

// Full modulus with the implicit x^64 bit made explicit.
Gf2Poly full_poly(std::uint64_t low64) {
  return (Gf2Poly(1) << 64) | Gf2Poly(low64);
}

}  // namespace

RabinTables::RabinTables(std::size_t window_bytes, std::uint64_t poly_low64)
    : window_(window_bytes), poly_(poly_low64) {
  if (window_bytes == 0) {
    throw std::invalid_argument("RabinTables: window must be >= 1");
  }
  const Gf2Poly p = full_poly(poly_low64);
  if (!gf2_is_irreducible(p)) {
    throw std::invalid_argument("RabinTables: polynomial is not irreducible");
  }

  // push_table[t] = t * x^64 mod P for the byte t shifted out of bits 56..63.
  for (unsigned t = 0; t < 256; ++t) {
    const Gf2Poly v = gf2_mod(Gf2Poly(t) << 64, p);
    push_table_[t] = static_cast<std::uint64_t>(v);
  }

  // pop_table[b] = b * x^(8*(w-1)) mod P. Build x^(8*(w-1)) mod P by repeated
  // byte shifts so no large exponent object is needed.
  Gf2Poly x_pow = 1;  // x^0
  for (std::size_t i = 0; i + 1 < window_bytes; ++i) {
    x_pow = gf2_mod(x_pow << 8, p);
  }
  for (unsigned b = 0; b < 256; ++b) {
    const Gf2Poly v = gf2_mod(gf2_mul(Gf2Poly(b), x_pow), p);
    pop_table_[b] = static_cast<std::uint64_t>(v);
  }

  // slide_table[b] = b * x^(8*w) mod P: the pop contribution advanced one
  // more byte, so that pop-then-push fuses into push ^ slide_table[out]
  // (reduction is GF(2)-linear, so the two reductions combine).
  const Gf2Poly x_pow_w = gf2_mod(x_pow << 8, p);
  for (unsigned b = 0; b < 256; ++b) {
    const Gf2Poly v = gf2_mod(gf2_mul(Gf2Poly(b), x_pow_w), p);
    slide_table_[b] = static_cast<std::uint64_t>(v);
  }

  // slide4 tables. jump_table[j][c] = c * x^(88-8j): the reduction of the
  // register bytes shifted out by fp * x^32 (j = 3 is push_table itself).
  // out4_table[m][o] = o * x^(8w+8(3-m)): the m-th of the four window bytes
  // leaving during the jump (m = 3 is slide_table itself).
  Gf2Poly x_exp = gf2_mod(gf2_mod(Gf2Poly(1) << 64, p) << 8, p);  // x^72
  for (int j = 2; j >= 0; --j) {
    for (unsigned c = 0; c < 256; ++c) {
      jump_table_[static_cast<std::size_t>(j)][c] =
          static_cast<std::uint64_t>(gf2_mod(gf2_mul(Gf2Poly(c), x_exp), p));
    }
    x_exp = gf2_mod(x_exp << 8, p);
  }
  Gf2Poly out_exp = gf2_mod(x_pow_w << 8, p);  // x^(8w+8)
  for (int m = 2; m >= 0; --m) {
    for (unsigned o = 0; o < 256; ++o) {
      out4_table_[static_cast<std::size_t>(m)][o] =
          static_cast<std::uint64_t>(gf2_mod(gf2_mul(Gf2Poly(o), out_exp), p));
    }
    out_exp = gf2_mod(out_exp << 8, p);
  }

  // Window-sum matrices. column[k] = (1<<k) * x^(8j) mod P, advanced one
  // distance per round by a zero-byte push. Output bit r of plane q is row
  // r, which gf2p8affineqb reads from byte 7-r; its bit k is bit 8q+r of
  // column k.
  plane_matrices_.assign(window_bytes * kMatrixPlanes, 0);
  std::array<std::uint64_t, 8> column;
  for (unsigned k = 0; k < 8; ++k) {
    column[k] = push(0, static_cast<std::uint8_t>(1u << k));
  }
  for (std::size_t j = 0; j < window_bytes; ++j) {
    for (unsigned q = 0; q < kMatrixPlanes; ++q) {
      std::uint64_t m = 0;
      for (unsigned r = 0; r < 8; ++r) {
        for (unsigned k = 0; k < 8; ++k) {
          m |= ((column[k] >> (8 * q + r)) & 1) << (8 * (7 - r) + k);
        }
      }
      plane_matrices_[j * kMatrixPlanes + q] = m;
    }
    for (auto& c : column) c = push(c, 0);
  }
}

std::uint64_t RabinTables::x_pow_8k(std::uint64_t k) const {
  const Gf2Poly p = full_poly(poly_);
  Gf2Poly result = 1;                              // x^0
  Gf2Poly sq = gf2_mod(Gf2Poly(1) << 8, p);        // x^8
  while (k != 0) {
    if (k & 1) result = gf2_mulmod(result, sq, p);
    sq = gf2_mulmod(sq, sq, p);
    k >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

std::uint64_t RabinTables::concat(std::uint64_t prefix_fp,
                                  std::uint64_t suffix_fp,
                                  std::uint64_t suffix_len) const {
  const Gf2Poly p = full_poly(poly_);
  const Gf2Poly shifted =
      gf2_mulmod(Gf2Poly(prefix_fp), Gf2Poly(x_pow_8k(suffix_len)), p);
  return static_cast<std::uint64_t>(shifted) ^ suffix_fp;
}

std::uint64_t RabinTables::fingerprint(ByteSpan data) const noexcept {
  std::uint64_t fp = 0;
  for (std::uint8_t b : data) fp = push(fp, b);
  return fp;
}

RabinWindow::RabinWindow(const RabinTables& tables)
    : tables_(&tables), ring_(tables.window(), 0) {}

void RabinWindow::reset() noexcept {
  pos_ = 0;
  filled_ = 0;
  fp_ = 0;
}

}  // namespace shredder::rabin
