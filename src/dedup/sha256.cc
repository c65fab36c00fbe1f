#include "dedup/sha256.h"

#include <algorithm>
#include <cstring>

#include "dedup/sha256_compress.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace shredder::dedup {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int s) noexcept {
  return (x >> s) | (x << (32 - s));
}

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t) noexcept;

// The dispatch decision, made once on first use (a function-local static,
// so a hash run from another translation unit's static initializer still
// sees a selected compress).
inline void compress(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t nblocks) noexcept {
  static const CompressFn fn = detail::sha256_shani_supported()
                                   ? &detail::sha256_compress_shani
                                   : &detail::sha256_compress_scalar;
  fn(state, data, nblocks);
}

}  // namespace

namespace detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
  for (; nblocks != 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool sha256_shani_supported() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & bit_SHA) != 0;  // leaf 7, EBX bit 29
  return sha && sse41 && ssse3;
}

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH. Each sha256rnds2 runs two rounds from the low two words of
// (W + K); sha256msg1/msg2 plus one alignr/add compute the next four
// schedule words. Four-round group g uses schedule vector msg[g % 4].
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::uint32_t state[8], const std::uint8_t* data,
    std::size_t nblocks) noexcept {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);     // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);  // CDGH

  for (; nblocks != 0; --nblocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = msg[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            kBswap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      if (g >= 3 && g <= 14) {
        // Finish W[4g+4 .. 4g+7] in msg[(g+1) % 4].
        __m128i& next = msg[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
      if (g >= 1 && g <= 12) {
        // Start W[4g+12 .. 4g+15] in msg[(g-1) % 4].
        msg[(g - 1) & 3] = _mm_sha256msg1_epu32(msg[(g - 1) & 3], cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // ABEF
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#else

bool sha256_shani_supported() noexcept { return false; }

void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks) noexcept {
  sha256_compress_scalar(state, data, nblocks);
}

#endif

}  // namespace detail

std::string Sha256Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::uint64_t Sha256Digest::prefix64() const noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

void Sha256::reset() noexcept {
  h_[0] = 0x6a09e667u;
  h_[1] = 0xbb67ae85u;
  h_[2] = 0x3c6ef372u;
  h_[3] = 0xa54ff53au;
  h_[4] = 0x510e527fu;
  h_[5] = 0x9b05688cu;
  h_[6] = 0x1f83d9abu;
  h_[7] = 0x5be0cd19u;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::update(ByteSpan data) noexcept {
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ < 64) return;
    compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks != 0) {
    compress(h_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  buffered_ = data.size() - offset;
  if (buffered_ != 0) {
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Sha256Digest Sha256::finish() noexcept {
  // 0x80, zeros, then the 64-bit big-endian bit length in the last 8 bytes
  // of the final block: one block if the length fits after the 0x80 byte,
  // else two.
  const std::uint64_t bit_length = length_ * 8;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  const std::size_t end = blocks * 64;
  buffer_[buffered_] = 0x80;
  std::memset(buffer_.data() + buffered_ + 1, 0, end - 8 - buffered_ - 1);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[end - 8 + i] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(h_, buffer_.data(), blocks);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(h_[i] >> 24);
    digest.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(h_[i] >> 16);
    digest.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(h_[i] >> 8);
    digest.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(h_[i]);
  }
  reset();
  return digest;
}

Sha256Digest Sha256::hash(ByteSpan data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace shredder::dedup
