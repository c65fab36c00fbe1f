// Chain-free window-sum scan: the x86-64 GFNI/AVX-512BW boundary test
// behind scan_buffer (declared in chunking/cdc_fastpath.h).
//
// The masked fingerprint bits of the window ending at byte i are
//
//   plane q of fp_i = XOR over j < w of plane_matrix(j, q) * data[i-j]
//
// (rabin/rabin.h). Every position is independent, so one gf2p8affineqb
// evaluates one term at 64 positions, with no carried chain and no
// warm-up. Only positions whose masked bits equal the marker (about 1 in
// 2^mask_bits) go back to the caller, which recomputes their full
// fingerprint. docs/perf.md gives the derivation and the measurements.
#include <algorithm>
#include <array>
#include <bit>

#include "chunking/cdc_fastpath.h"
#include "chunking/chunk.h"
#include "common/check.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shredder::chunking::detail {

#if defined(__x86_64__)

namespace {

bool detect_window_sum() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & bit_OSXSAVE) == 0) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool isa = (b & bit_AVX512F) != 0 && (b & bit_AVX512BW) != 0 &&
                   (c & bit_GFNI) != 0;
  if (!isa) return false;
  // The OS must save YMM (XCR0 bit 2), opmask (5) and ZMM (6, 7) state, plus
  // SSE (1). xgetbv is inline asm: the intrinsic only inlines with -mxsave.
  unsigned lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  constexpr unsigned kOsState = 0xE6;
  return (lo & kOsState) == kOsState;
}

void report(const HitSink& hits, std::size_t at, std::uint64_t k) {
  for (; k != 0; k &= k - 1) {
    hits.fn(hits.ctx, at + static_cast<std::size_t>(std::countr_zero(k)));
  }
}

// Per-call constants: the marker and mask bytes of each plane, and the
// distances that contribute to plane 0 (`first`) and to planes 1..Q-1
// (`rest`). A zero matrix adds nothing; for the 13-bit mask that skips
// distances 1..7 of plane 0 and 0, 2..7 of plane 1 (docs/perf.md).
template <unsigned Q>
struct Plan {
  const rabin::RabinTables* tables;
  __m512i want[Q];
  __m512i keep[Q];
  std::array<std::uint16_t, kMaxWindow> first;
  std::array<std::uint16_t, kMaxWindow> rest;
  std::size_t n_first = 0;
  std::size_t n_rest = 0;
};

// Planes 1..Q-1 of the 64 positions at p + i (loads limited to `in`),
// compared against the marker: the confirmation of plane-0 candidates.
template <unsigned Q>
__attribute__((target("avx512f,avx512bw,gfni"))) __mmask64 confirm(
    const Plan<Q>& plan, const std::uint8_t* p, std::size_t i,
    __mmask64 in) {
  __m512i acc[Q];
#pragma GCC unroll 6
  for (unsigned q = 1; q < Q; ++q) acc[q] = _mm512_setzero_si512();
  for (std::size_t l = 0; l < plan.n_rest; ++l) {
    const std::size_t j = plan.rest[l];
    const __m512i x = _mm512_maskz_loadu_epi8(in, p + i - j);
#pragma GCC unroll 6
    for (unsigned q = 1; q < Q; ++q) {
      const __m512i m = _mm512_set1_epi64(
          static_cast<long long>(plan.tables->plane_matrix(j, q)));
      acc[q] =
          _mm512_xor_si512(acc[q], _mm512_gf2p8affine_epi64_epi8(x, m, 0));
    }
  }
  __mmask64 k = in;
#pragma GCC unroll 6
  for (unsigned q = 1; q < Q; ++q) {
    k &= _mm512_cmpeq_epi8_mask(_mm512_and_si512(acc[q], plan.keep[q]),
                                plan.want[q]);
  }
  return k;
}

// Plane 0 filters, the other planes confirm: a random window passes plane
// 0 with probability 1/256 (1/2^mask_bits when Q == 1), so most 64-position
// vectors never evaluate planes 1..Q-1. A stretch of four vectors shares
// each distance's broadcast plane-0 matrix; the tail runs one vector at a
// time, the last one under a load mask.
template <unsigned Q>
__attribute__((target("avx512f,avx512bw,gfni"))) void hits_in_planes(
    const rabin::RabinTables& tables, std::uint64_t mask,
    std::uint64_t marker, const std::uint8_t* p, std::size_t first,
    std::size_t n, HitSink hits) {
  constexpr std::size_t V = 4;
  Plan<Q> plan;
  plan.tables = &tables;
#pragma GCC unroll 6
  for (unsigned q = 0; q < Q; ++q) {
    plan.want[q] = _mm512_set1_epi8(static_cast<char>(marker >> (8 * q)));
    plan.keep[q] = _mm512_set1_epi8(static_cast<char>(mask >> (8 * q)));
  }
  for (std::size_t j = 0; j < tables.window(); ++j) {
    std::uint64_t any_rest = 0;
    for (unsigned q = 1; q < Q; ++q) any_rest |= tables.plane_matrix(j, q);
    const auto d = static_cast<std::uint16_t>(j);
    if (tables.plane_matrix(j, 0) != 0) plan.first[plan.n_first++] = d;
    if (any_rest != 0) plan.rest[plan.n_rest++] = d;
  }

  std::size_t i = first;
  for (; i < n && n - i >= 64 * V; i += 64 * V) {
    __m512i acc[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) acc[v] = _mm512_setzero_si512();
    for (std::size_t l = 0; l < plan.n_first; ++l) {
      const std::size_t j = plan.first[l];
      const __m512i m = _mm512_set1_epi64(
          static_cast<long long>(tables.plane_matrix(j, 0)));
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v) {
        const __m512i x = _mm512_loadu_si512(p + i - j + 64 * v);
        acc[v] =
            _mm512_xor_si512(acc[v], _mm512_gf2p8affine_epi64_epi8(x, m, 0));
      }
    }
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      __mmask64 k = _mm512_cmpeq_epi8_mask(
          _mm512_and_si512(acc[v], plan.keep[0]), plan.want[0]);
      if (k != 0) [[unlikely]] {
        if constexpr (Q > 1) k &= confirm(plan, p, i + 64 * v, ~__mmask64{0});
        report(hits, i + 64 * v, k);
      }
    }
  }
  while (i < n) {
    const std::size_t len = std::min<std::size_t>(64, n - i);
    const __mmask64 in =
        len == 64 ? ~__mmask64{0} : (__mmask64{1} << len) - 1;
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t l = 0; l < plan.n_first; ++l) {
      const std::size_t j = plan.first[l];
      const __m512i m = _mm512_set1_epi64(
          static_cast<long long>(tables.plane_matrix(j, 0)));
      acc = _mm512_xor_si512(
          acc, _mm512_gf2p8affine_epi64_epi8(
                   _mm512_maskz_loadu_epi8(in, p + i - j), m, 0));
    }
    __mmask64 k = in & _mm512_cmpeq_epi8_mask(
                           _mm512_and_si512(acc, plan.keep[0]), plan.want[0]);
    if (k != 0) {
      if constexpr (Q > 1) k &= confirm(plan, p, i, in);
      report(hits, i, k);
    }
    i += len;
  }
}

}  // namespace

bool window_sum_supported() noexcept {
  static const bool supported = detect_window_sum();
  return supported;
}

void window_sum_hits(const rabin::RabinTables& tables, std::uint64_t mask,
                     std::uint64_t marker, const std::uint8_t* p,
                     std::size_t first, std::size_t n, HitSink hits) {
  const std::size_t w = tables.window();
  SHREDDER_CHECK_MSG(w <= kMaxWindow && first + 1 >= w,
                     "window_sum_hits: window too large or first < w - 1");
  switch ((std::bit_width(mask) + 7) / 8) {
    case 1: hits_in_planes<1>(tables, mask, marker, p, first, n, hits); break;
    case 2: hits_in_planes<2>(tables, mask, marker, p, first, n, hits); break;
    case 3: hits_in_planes<3>(tables, mask, marker, p, first, n, hits); break;
    case 4: hits_in_planes<4>(tables, mask, marker, p, first, n, hits); break;
    case 5: hits_in_planes<5>(tables, mask, marker, p, first, n, hits); break;
    default: hits_in_planes<6>(tables, mask, marker, p, first, n, hits); break;
  }
}

#else  // !__x86_64__

bool window_sum_supported() noexcept { return false; }

void window_sum_hits(const rabin::RabinTables&, std::uint64_t, std::uint64_t,
                     const std::uint8_t*, std::size_t, std::size_t, HitSink) {
  SHREDDER_CHECK_MSG(false, "window_sum_hits: needs x86-64 GFNI/AVX-512BW");
}

#endif

}  // namespace shredder::chunking::detail
