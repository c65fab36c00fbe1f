// SHA-256 (FIPS 180-4), from scratch: the canonical ChunkDigest of the
// dedup/backup stack (dedup/digest.h).
//
// The block compress is picked once per process: the x86 SHA extensions
// (SHA-NI) when CPUID reports them, the portable scalar compress otherwise.
// Both produce bit-identical digests (dedup_test differential suite); no
// build flag or setting is involved. update() hands every run of whole
// blocks to the compress in one call.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace shredder::dedup {

struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Sha256Digest&, const Sha256Digest&) = default;
  std::string hex() const;
  std::uint64_t prefix64() const noexcept;
};

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteSpan data) noexcept;
  Sha256Digest finish() noexcept;  // resets afterwards

  static Sha256Digest hash(ByteSpan data) noexcept;

 private:
  std::uint32_t h_[8];
  std::uint64_t length_ = 0;
  // One partial block between update() calls; finish() pads in place into
  // the one or two final blocks.
  std::array<std::uint8_t, 128> buffer_{};
  std::size_t buffered_ = 0;
};

struct Sha256DigestHash {
  std::size_t operator()(const Sha256Digest& d) const noexcept {
    return static_cast<std::size_t>(d.prefix64());
  }
};

}  // namespace shredder::dedup
