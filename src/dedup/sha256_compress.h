// SHA-256 block compression functions behind dedup::Sha256 (internal).
//
// Both advance `state` over `nblocks` consecutive 64-byte blocks and give
// bit-identical results. Sha256 selects one at first use: SHA-NI when CPUID
// reports it, scalar otherwise. Exposed here so the differential test can
// call each directly; callers outside dedup/ use Sha256.
#pragma once

#include <cstddef>
#include <cstdint>

namespace shredder::dedup::detail {

// Portable FIPS 180-4 compression: the fallback and the oracle.
void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

// True when the CPU has the SHA extensions plus SSE4.1 and SSSE3
// (always false off x86-64).
bool sha256_shani_supported() noexcept;

// x86 SHA extensions compression. Only call when sha256_shani_supported();
// off x86-64 it forwards to the scalar compress.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks) noexcept;

}  // namespace shredder::dedup::detail
