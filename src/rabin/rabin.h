// Table-driven Rabin fingerprinting over a sliding window (paper §2.1).
//
// The fingerprint of a byte sequence is its residue modulo an irreducible
// degree-64 polynomial P (the leading x^64 coefficient is implicit; `poly()`
// returns the low 64 bits). Two 256-entry tables make both appending a byte
// and expiring the oldest window byte O(1):
//
//   push_table[t] = (t * x^64)        mod P   (reduction of the byte shifted
//                                              out of the 64-bit register)
//   pop_table[b]  = (b * x^(8*(w-1))) mod P   (contribution of the byte
//                                              leaving a w-byte window)
//
// A third table fuses the two for a full sliding-window step. Because
// reduction is GF(2)-linear, pop-then-push over a full window equals a plain
// push plus one extra XOR:
//
//   slide_table[b] = (b * x^(8*w))    mod P   (= pop_table[b] advanced one
//                                              byte through the register)
//   slide(fp, in, out) = push(fp, in) ^ slide_table[out]
//
// slide() still carries a serial dependency of one table walk per byte
// (fp -> load -> xor -> fp). slide4() breaks it: linearity lets four window
// steps collapse into ONE carried operation whose four reduction lookups are
// indexed by independent bytes of fp and so issue in parallel:
//
//   jump_table[j][c] = (c * x^(64+8*(3-j)))   mod P   (register bytes shifted
//                                                      out by fp * x^32)
//   out4_table[m][o] = (o * x^(8*w+8*(3-m)))  mod P   (the m-th of the four
//                                                      leaving window bytes)
//
// The carried chain thus advances four bytes per hop; the scalar buffer scan
// computes the three intermediate fingerprints off the critical path (see
// chunking::scan_buffer). Past that tier the scalar scan is bound by its
// table loads, not by the chain: an 8-byte hop and 2-8 interleaved lanes
// were all measured no faster (docs/perf.md).
//
// Linearity also removes the chain altogether. The fingerprint of the
// window ending at byte i is the XOR over distances j < w of
// T_j(data[i-j]) = data[i-j] * x^(8j) mod P, and each byte plane q of T_j
// is an 8x8 GF(2) matrix applied to one byte:
//
//   plane_matrix(j, q): column k = bits 8q..8q+7 of (1<<k) * x^(8j) mod P
//
// stored in the row layout of x86 gf2p8affineqb (output bit r is the parity
// of input & byte 7-r), so one instruction evaluates one term at 64 window
// positions. The vector scan in chunking/window_sum.cc sums the terms for
// the ceil(mask_bits/8) low planes the boundary test reads.
//
// RabinTables is immutable after construction and safe to share across
// threads; RabinWindow is a small per-thread cursor.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace shredder::rabin {

// Low 64 bits of the default degree-64 irreducible polynomial (the x^64
// coefficient is implicit). Found with gf2_random_irreducible and verified
// by Rabin's irreducibility test at table construction. (The classic LBFS
// constant 0xbfe6b8a5bf378d83 is a degree-63 polynomial with an explicit
// leading bit; we use full 64-bit residues instead, which keeps the
// byte-push reduction branch-free.)
inline constexpr std::uint64_t kDefaultPoly = 0xfd845ef300ce2d0bull;

class RabinTables {
 public:
  // window_bytes is the sliding-window size w (the paper uses 48).
  // poly_low64 are the low 64 bits of an irreducible degree-64 polynomial.
  // Throws std::invalid_argument for w == 0 or a reducible polynomial.
  explicit RabinTables(std::size_t window_bytes = 48,
                       std::uint64_t poly_low64 = kDefaultPoly);

  // Byte planes with a plane_matrix: enough for the 48 low fingerprint bits
  // a ChunkerConfig can test.
  static constexpr unsigned kMatrixPlanes = 6;

  std::size_t window() const noexcept { return window_; }
  std::uint64_t poly() const noexcept { return poly_; }

  // fp' = (fp * x^8 + b) mod P
  std::uint64_t push(std::uint64_t fp, std::uint8_t b) const noexcept {
    const std::uint8_t shifted_out = static_cast<std::uint8_t>(fp >> 56);
    return ((fp << 8) | b) ^ push_table_[shifted_out];
  }

  // Removes the contribution of the byte that is leaving a full window.
  std::uint64_t pop(std::uint64_t fp, std::uint8_t oldest) const noexcept {
    return fp ^ pop_table_[oldest];
  }

  // Full-window step: slide(fp, in, out) == push(pop(fp, out), in), fused
  // into one shift and two XORs via slide_table. This is the whole inner
  // loop of the buffer fast path (chunking::scan_buffer).
  std::uint64_t slide(std::uint64_t fp, std::uint8_t in,
                      std::uint8_t out) const noexcept {
    const std::uint8_t shifted_out = static_cast<std::uint8_t>(fp >> 56);
    return (((fp << 8) | in) ^ push_table_[shifted_out]) ^ slide_table_[out];
  }

  // Four full-window steps fused into one carried operation. Equivalent to
  //   slide(slide(slide(slide(fp, in0, out0), in1, out1), in2, out2),
  //         in3, out3)
  // with in4_be = in0<<24 | in1<<16 | in2<<8 | in3, but the four reduction
  // lookups depend on disjoint bytes of fp and issue in parallel, so the
  // loop-carried latency is one hop per FOUR bytes instead of four
  // dependent table walks. Requires a full window (like slide).
  std::uint64_t slide4(std::uint64_t fp, std::uint32_t in4_be,
                       std::uint8_t out0, std::uint8_t out1,
                       std::uint8_t out2, std::uint8_t out3) const noexcept {
    return ((fp << 32) | in4_be) ^
           jump_table_[0][static_cast<std::uint8_t>(fp >> 56)] ^
           jump_table_[1][static_cast<std::uint8_t>(fp >> 48)] ^
           jump_table_[2][static_cast<std::uint8_t>(fp >> 40)] ^
           push_table_[static_cast<std::uint8_t>(fp >> 32)] ^
           out4_table_[0][out0] ^ out4_table_[1][out1] ^
           out4_table_[2][out2] ^ slide_table_[out3];
  }

  // x^(8*k) mod P, by square-and-multiply — O(log k) instead of k byte
  // shifts. This is the "jump" polynomial: appending k arbitrary bytes to a
  // stream multiplies its fingerprint by x^(8k), so batch entry/exit states
  // are computable without per-byte table walks (see concat()).
  std::uint64_t x_pow_8k(std::uint64_t k) const;

  // Fingerprint of the concatenation A||B from fingerprint(A),
  // fingerprint(B) and |B|: fp(A||B) = fp(A) * x^(8|B|) + fp(B) mod P.
  std::uint64_t concat(std::uint64_t prefix_fp, std::uint64_t suffix_fp,
                       std::uint64_t suffix_len) const;

  // Fingerprint of an entire buffer (no window), for tests and whole-chunk
  // fingerprints.
  std::uint64_t fingerprint(ByteSpan data) const noexcept;

  // The gf2p8affineqb matrix mapping the byte at window distance j
  // (0 = newest, j < window()) to byte plane q (< kMatrixPlanes) of its
  // fingerprint term; see the header comment.
  std::uint64_t plane_matrix(std::size_t j, unsigned q) const noexcept {
    return plane_matrices_[j * kMatrixPlanes + q];
  }

 private:
  std::size_t window_;
  std::uint64_t poly_;
  std::array<std::uint64_t, 256> push_table_;
  std::array<std::uint64_t, 256> pop_table_;
  std::array<std::uint64_t, 256> slide_table_;
  // jump_table_[j][c] = c * x^(88-8j) mod P; the j=3 case is push_table_.
  std::array<std::array<std::uint64_t, 256>, 3> jump_table_;
  // out4_table_[m][o] = o * x^(8w+8(3-m)) mod P; the m=3 case is
  // slide_table_.
  std::array<std::array<std::uint64_t, 256>, 3> out4_table_;
  // window() * kMatrixPlanes matrices, distance-major.
  std::vector<std::uint64_t> plane_matrices_;
};

// Sliding-window cursor. push() returns the fingerprint of the last
// min(window, #bytes pushed) bytes.
class RabinWindow {
 public:
  explicit RabinWindow(const RabinTables& tables);

  std::uint64_t push(std::uint8_t b) noexcept {
    if (filled_ == tables_->window()) {
      fp_ = tables_->pop(fp_, ring_[pos_]);
    } else {
      ++filled_;
    }
    ring_[pos_] = b;
    pos_ = pos_ + 1 == tables_->window() ? 0 : pos_ + 1;
    fp_ = tables_->push(fp_, b);
    return fp_;
  }

  std::uint64_t value() const noexcept { return fp_; }
  bool full() const noexcept { return filled_ == tables_->window(); }
  void reset() noexcept;

 private:
  const RabinTables* tables_;
  ByteVec ring_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t fp_ = 0;
};

}  // namespace shredder::rabin
