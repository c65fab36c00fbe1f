// Deduplicator: ties the three steps of duplicate identification together
// (paper §2.1): chunking (done by the caller — Shredder or a baseline
// chunker), hashing (SHA-256 per chunk, or precomputed digests from the GPU
// fingerprint stage) and matching (ChunkIndex + ChunkStore).
//
// Also provides dedup_efficiency(), the measurement used to compare chunking
// schemes: given two versions of a payload, how many bytes of the second
// version are found in the store populated by the first.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chunking/chunk.h"
#include "common/bytes.h"
#include "common/thread_pool.h"
#include "dedup/digest.h"
#include "dedup/index.h"
#include "dedup/store.h"

namespace shredder::dedup {

struct DedupStats {
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_duplicate = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_duplicate = 0;

  double dedup_ratio() const noexcept {
    return bytes_total == 0 ? 0.0
                            : static_cast<double>(bytes_duplicate) /
                                  static_cast<double>(bytes_total);
  }
};

// The ChunkHasher digest of every chunk of `image`, in chunk order: across
// `pool` (contiguous chunk ranges per worker) when one is given, serially on
// the calling thread otherwise. Bit-identical either way. Must not be called
// from a `pool` worker.
std::vector<ChunkDigest> hash_chunks(ThreadPool* pool, ByteSpan image,
                                     std::span<const chunking::Chunk> chunks);

class Deduplicator {
 public:
  // Baseline index with a flat per-probe cost (the historical default).
  explicit Deduplicator(double index_probe_seconds = 0.8e-6);
  // Full backend selection: kPaperBaseline or the ChunkStash-style kSparse
  // index (docs/dedup_index.md).
  explicit Deduplicator(const IndexConfig& index_config);

  // Ingests `data` pre-split into `chunks`; stores unique chunks, counts
  // duplicates. Returns the stats for this ingestion only. Hashes every
  // chunk on the host.
  DedupStats ingest(ByteSpan data, const std::vector<chunking::Chunk>& chunks);

  // Same, but with digests precomputed elsewhere (the on-device fingerprint
  // stage). `digests[i]` must be the canonical hash of `chunks[i]` — the
  // ChunkStore recheck catches mismatches in debug builds. Throws
  // std::invalid_argument when the two vectors disagree in length.
  DedupStats ingest(ByteSpan data, const std::vector<chunking::Chunk>& chunks,
                    const std::vector<ChunkDigest>& digests);

  const IndexBackend& index() const noexcept { return *index_; }
  const ChunkStore& store() const noexcept { return store_; }
  ChunkStore& store() noexcept { return store_; }

 private:
  DedupStats ingest_impl(ByteSpan data,
                         const std::vector<chunking::Chunk>& chunks,
                         const std::vector<ChunkDigest>* digests);

  std::unique_ptr<IndexBackend> index_;
  ChunkStore store_;
  std::uint64_t next_offset_ = 0;
};

}  // namespace shredder::dedup
