// Internals of the scan_buffer fast path (chunking/cdc.h). Split out so the
// public header stays readable; include cdc.h, not this file.
//
// Two paths give bit-identical output. The window-sum scan
// (scan_window_sum) evaluates every window position independently with
// GFNI/AVX-512BW and is used whenever the CPU has them. The scalar lanes
// (scan_lane, scan_two_lanes) are the fallback elsewhere and the oracle the
// tests hold the vector path against.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "rabin/rabin.h"

namespace shredder::chunking::detail {

// One unaligned 8-byte load with the first byte of memory in the most
// significant position (stream order, matching slide4's in/out packing).
inline std::uint64_t load8_be(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Fingerprints of the eight windows ending at positions i .. i+7, given
// fp = fingerprint of the window ending at i-1 (window must be full). The
// carried value hops fp -> f3 -> f7 through slide4, so the loop-carried
// dependency is one fused table round per FOUR bytes; the six intermediate
// fingerprints hang off the hop values, outside the critical path. The
// incoming and leaving bytes are fetched as one 8-byte word each and split
// with register shifts, keeping load traffic to the table lookups plus two
// data words per batch. Named members (not an array) so the whole batch
// stays in registers after inlining.
struct Batch8 {
  std::uint64_t f0, f1, f2, f3, f4, f5, f6, f7;

  std::uint64_t get(std::size_t k) const noexcept {
    switch (k) {
      case 0: return f0;
      case 1: return f1;
      case 2: return f2;
      case 3: return f3;
      case 4: return f4;
      case 5: return f5;
      case 6: return f6;
      default: return f7;
    }
  }
};

inline Batch8 batch8(const rabin::RabinTables& t, const std::uint8_t* p,
                     std::size_t i, std::size_t w, std::uint64_t fp) noexcept {
  const std::uint64_t in8 = load8_be(p + i);
  const std::uint64_t out8 = load8_be(p + i - w);
  Batch8 b;
  b.f0 = t.slide(fp, static_cast<std::uint8_t>(in8 >> 56),
                 static_cast<std::uint8_t>(out8 >> 56));
  b.f1 = t.slide(b.f0, static_cast<std::uint8_t>(in8 >> 48),
                 static_cast<std::uint8_t>(out8 >> 48));
  b.f2 = t.slide(b.f1, static_cast<std::uint8_t>(in8 >> 40),
                 static_cast<std::uint8_t>(out8 >> 40));
  b.f3 = t.slide4(fp, static_cast<std::uint32_t>(in8 >> 32),
                  static_cast<std::uint8_t>(out8 >> 56),
                  static_cast<std::uint8_t>(out8 >> 48),
                  static_cast<std::uint8_t>(out8 >> 40),
                  static_cast<std::uint8_t>(out8 >> 32));
  b.f4 = t.slide(b.f3, static_cast<std::uint8_t>(in8 >> 24),
                 static_cast<std::uint8_t>(out8 >> 24));
  b.f5 = t.slide(b.f4, static_cast<std::uint8_t>(in8 >> 16),
                 static_cast<std::uint8_t>(out8 >> 16));
  b.f6 = t.slide(b.f5, static_cast<std::uint8_t>(in8 >> 8),
                 static_cast<std::uint8_t>(out8 >> 8));
  b.f7 = t.slide4(b.f3, static_cast<std::uint32_t>(in8),
                  static_cast<std::uint8_t>(out8 >> 24),
                  static_cast<std::uint8_t>(out8 >> 16),
                  static_cast<std::uint8_t>(out8 >> 8),
                  static_cast<std::uint8_t>(out8));
  return b;
}

// Boundary-mask test over one batch, hoisted into a single accumulated
// predicate (boundaries are ~1 in 2^mask_bits bytes, so the per-batch
// branch taken on this value is almost never taken and predicts perfectly).
inline unsigned batch_any(const Batch8& b, std::uint64_t mask,
                          std::uint64_t marker) noexcept {
  return static_cast<unsigned>((b.f0 & mask) == marker) |
         static_cast<unsigned>((b.f1 & mask) == marker) |
         static_cast<unsigned>((b.f2 & mask) == marker) |
         static_cast<unsigned>((b.f3 & mask) == marker) |
         static_cast<unsigned>((b.f4 & mask) == marker) |
         static_cast<unsigned>((b.f5 & mask) == marker) |
         static_cast<unsigned>((b.f6 & mask) == marker) |
         static_cast<unsigned>((b.f7 & mask) == marker);
}

// Single-lane scan over positions [start, end_n) of p: warmup prologue that
// fills the window once (so the steady loop has no `filled == w` check and
// no ring buffer — the leaving byte is just p[i - w]), then batches of 8,
// then a per-byte tail. A check at position i means "the window ending at
// byte i"; its end offset is base + i + 1. Positions below emit_floor only
// advance state. Requires end_n - start >= w to emit anything.
template <typename Sink>
inline void scan_lane(const rabin::RabinTables& tables, std::uint64_t mask,
                      std::uint64_t marker, const std::uint8_t* p,
                      std::size_t start, std::size_t end_n,
                      std::size_t emit_floor, std::uint64_t base,
                      Sink&& sink) {
  const std::size_t w = tables.window();
  if (end_n - start < w) return;
  std::uint64_t fp = 0;
  for (std::size_t i = start; i < start + w; ++i) fp = tables.push(fp, p[i]);
  // First full window: position start + w - 1.
  if (start + w - 1 >= emit_floor && (fp & mask) == marker) {
    sink(base + start + w, fp);
  }
  std::size_t i = start + w;
  for (; i < end_n && i < emit_floor; ++i) {
    fp = tables.slide(fp, p[i], p[i - w]);
  }
  for (; i + 8 <= end_n; i += 8) {
    const Batch8 b = batch8(tables, p, i, w, fp);
    fp = b.f7;
    if (batch_any(b, mask, marker) != 0) [[unlikely]] {
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint64_t f = b.get(k);
        if ((f & mask) == marker) sink(base + i + k + 1, f);
      }
    }
  }
  for (; i < end_n; ++i) {
    fp = tables.slide(fp, p[i], p[i - w]);
    if ((fp & mask) == marker) sink(base + i + 1, fp);
  }
}

// Two interleaved lanes over [0, n): lane A emits positions [0, c), lane B
// positions [c, n), with B's window warmed on the w-1 true stream bytes
// before c so the union is exactly the single-lane boundary stream. The
// fused loop advances both lanes per iteration: their carried fingerprint
// chains are independent, so the out-of-order core overlaps them and the
// scan is no longer limited by one chain's hop latency. Lane B's hits are
// buffered (they must come after all of A's); lane A streams directly.
template <typename Emit>
inline void scan_two_lanes(const rabin::RabinTables& tables,
                           std::uint64_t mask, std::uint64_t marker,
                           const std::uint8_t* p, std::size_t n,
                           std::size_t warmup, std::uint64_t base,
                           Emit&& emit) {
  const std::size_t w = tables.window();
  const std::size_t c = n / 2;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hits_b;
  hits_b.reserve(64);

  // Prologues. Lane A warms on [0, w); lane B on [c+1-w, c+1) so its first
  // check is position c (end offset c + 1).
  std::uint64_t fp_a = 0;
  for (std::size_t i = 0; i < w; ++i) fp_a = tables.push(fp_a, p[i]);
  if (w - 1 >= warmup && (fp_a & mask) == marker) emit(base + w, fp_a);
  std::uint64_t fp_b = 0;
  for (std::size_t i = c + 1 - w; i < c + 1; ++i) fp_b = tables.push(fp_b, p[i]);
  if (c >= warmup && (fp_b & mask) == marker) {
    hits_b.emplace_back(base + c + 1, fp_b);
  }

  std::size_t ia = w;
  for (; ia < c && ia < warmup; ++ia) fp_a = tables.slide(fp_a, p[ia], p[ia - w]);
  std::size_t ib = c + 1;
  for (; ib < n && ib < warmup; ++ib) fp_b = tables.slide(fp_b, p[ib], p[ib - w]);

  while (ia + 8 <= c && ib + 8 <= n) {
    const Batch8 ba = batch8(tables, p, ia, w, fp_a);
    const Batch8 bb = batch8(tables, p, ib, w, fp_b);
    fp_a = ba.f7;
    fp_b = bb.f7;
    if (batch_any(ba, mask, marker) != 0) [[unlikely]] {
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint64_t f = ba.get(k);
        if ((f & mask) == marker) emit(base + ia + k + 1, f);
      }
    }
    if (batch_any(bb, mask, marker) != 0) [[unlikely]] {
      for (std::size_t k = 0; k < 8; ++k) {
        const std::uint64_t f = bb.get(k);
        if ((f & mask) == marker) hits_b.emplace_back(base + ib + k + 1, f);
      }
    }
    ia += 8;
    ib += 8;
  }
  // Ragged tails (the lanes differ in length by at most a few bytes).
  for (; ia < c; ++ia) {
    fp_a = tables.slide(fp_a, p[ia], p[ia - w]);
    if ((fp_a & mask) == marker) emit(base + ia + 1, fp_a);
  }
  for (; ib < n; ++ib) {
    fp_b = tables.slide(fp_b, p[ib], p[ib - w]);
    if ((fp_b & mask) == marker) hits_b.emplace_back(base + ib + 1, fp_b);
  }
  for (const auto& [end, fp] : hits_b) emit(end, fp);
}

// Spans at least this large use the two-lane scan on the scalar path (the
// crossover is far lower, but small spans are latency-sensitive and lane
// warmup costs 2w table walks).
inline constexpr std::size_t kTwoLaneMinBytes = std::size_t{256} << 10;

// --- Chain-free window-sum scan (chunking/window_sum.cc) ---

// Receives the window-sum hits: fn(ctx, i) for window end position i.
struct HitSink {
  void (*fn)(void* ctx, std::size_t position);
  void* ctx;
};

// True when the CPU reports AVX512F, AVX512BW and GFNI and the OS saves the
// opmask and ZMM state. Decided once, on first use; always false off x86-64.
bool window_sum_supported() noexcept;

// Calls `hits` in ascending order for every position i in [first, n) whose
// window p[i+1-w .. i] has (fingerprint & mask) == marker. Requires
// window_sum_supported(), first >= w - 1 and w <= kMaxWindow.
void window_sum_hits(const rabin::RabinTables& tables, std::uint64_t mask,
                     std::uint64_t marker, const std::uint8_t* p,
                     std::size_t first, std::size_t n, HitSink hits);

// scan_lane's contract over [0, n) on the window-sum path: positions
// i >= max(w-1, warmup) are tested, and each hit's full fingerprint is
// recomputed with w pushes so emit(base + i + 1, fp) matches the scalar
// lanes bit for bit.
template <typename Emit>
inline void scan_window_sum(const rabin::RabinTables& tables,
                            std::uint64_t mask, std::uint64_t marker,
                            const std::uint8_t* p, std::size_t n,
                            std::size_t warmup, std::uint64_t base,
                            Emit&& emit) {
  const std::size_t w = tables.window();
  if (n < w) return;
  auto on_hit = [&](std::size_t i) {
    std::uint64_t fp = 0;
    for (std::size_t k = i + 1 - w; k <= i; ++k) fp = tables.push(fp, p[k]);
    emit(base + i + 1, fp);
  };
  using OnHit = decltype(on_hit);
  const HitSink sink{[](void* ctx, std::size_t i) {
                       (*static_cast<OnHit*>(ctx))(i);
                     },
                     &on_hit};
  window_sum_hits(tables, mask, marker, p, std::max(w - 1, warmup), n, sink);
}

}  // namespace shredder::chunking::detail
