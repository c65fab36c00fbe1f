// GPU chunking kernels (paper §3.1 and §4.3).
//
// Both kernels divide the buffer's payload into one contiguous sub-stream
// per GPU thread and compute Rabin fingerprints over a sliding window,
// emitting a boundary wherever the masked fingerprint equals the marker.
// Each thread warms its window on the w-1 bytes preceding its sub-stream, so
// the concatenated output is bit-identical to a serial scan of the buffer.
//
//  * Basic kernel (§3.1): each thread reads its own sub-stream directly from
//    global device memory in 16 B segments — thousands of interleaved
//    streams, which row-switches the DRAM banks on almost every transaction.
//  * Coalesced kernel (§4.3): the threads of a block cooperatively stage
//    tiles of their sub-streams into on-chip shared memory with contiguous
//    128 B half-warp transactions, then fingerprint out of shared memory.
//
// The simulation accounts that memory traffic tile by tile, then computes
// each thread's boundaries with one scan of its sub-stream straight from
// the device buffer: staging moves bytes, not results.
#pragma once

#include <cstdint>
#include <vector>

#include "chunking/chunk.h"
#include "dedup/digest.h"
#include "gpusim/device.h"
#include "rabin/rabin.h"

namespace shredder::core {

struct KernelParams {
  int blocks = 28;             // 2 resident blocks per SM on the C2050
  int threads_per_block = 128;
  bool coalesced = true;
  bool exact_dram = false;     // exact bank accounting (tests / small runs)
};

struct GpuChunkResult {
  // Absolute end offsets of raw content boundaries, ascending.
  std::vector<std::uint64_t> boundaries;
  gpu::KernelRunStats stats;
};

// Chunks buf[0, data_len). The first `carry` bytes are window context from
// the previous buffer (boundaries inside them are not re-emitted);
// `base_offset` is the absolute stream offset of buf[0].
GpuChunkResult chunk_on_gpu(gpu::Device& device, const gpu::DeviceBuffer& buf,
                            std::size_t data_len, std::size_t carry,
                            std::uint64_t base_offset,
                            const rabin::RabinTables& tables,
                            const chunking::ChunkerConfig& config,
                            const KernelParams& params);

struct GpuFingerprintResult {
  // One SHA-256 digest per cut, in cut order; bit-identical to the host
  // dedup::Sha256 over the same chunk bytes.
  std::vector<dedup::ChunkDigest> digests;
  gpu::KernelRunStats stats;
};

// Fingerprint kernel (§4.3-style second device stage): hashes the payload
// bytes buf[carry, data_len) — still resident from the chunking kernel —
// into per-chunk SHA-256 digests. `cuts` are the resolved chunk end offsets
// (absolute, ascending, each in (base_offset+carry, base_offset+data_len]).
// `carry_ctx` is the running hash of the open chunk's bytes from previous
// buffers; on return it holds the bytes after the last cut, so chunks that
// span buffers hash incrementally without re-reading evicted data. Each
// closed chunk is an independent hash task, mapped one-per-thread across the
// launch's blocks.
GpuFingerprintResult fingerprint_on_gpu(
    gpu::Device& device, const gpu::DeviceBuffer& buf, std::size_t data_len,
    std::size_t carry, std::uint64_t base_offset,
    const std::vector<std::uint64_t>& cuts, dedup::ChunkHasher& carry_ctx,
    const KernelParams& params);

}  // namespace shredder::core
