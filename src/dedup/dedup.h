// Deduplicator: the one per-chunk dedup decision (paper §2.1 step 3,
// "matching") behind every ingest frontend — the library ingest below, the
// backup server's walk and the chunking service's inline dedup. Given a
// chunk's digest (host SHA-256 or the device fingerprint stage), it probes
// the fingerprint index, then takes a reference on the stored copy or stores
// the payload. A stale index hit (a snapshot delete and GC sweep freed the
// chunk after the index recorded it) self-heals: the failed add_ref turns
// into a store (dedup ratio degrades, correctness never).
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

// The per-chunk decision: an index miss stores the payload, a hit takes a
// reference on the stored copy, a stale hit stores the payload again.
enum class IngestDecision { kUnique, kDuplicate, kHealed };

struct IngestOutcome {
  IngestDecision decision = IngestDecision::kUnique;
  PutOutcome put = PutOutcome::kInserted;  // of a stored (non-duplicate) chunk
  bool duplicate() const noexcept {
    return decision == IngestDecision::kDuplicate;
  }
};

struct DedupStats {
  std::uint64_t chunks_total = 0;
  std::uint64_t chunks_duplicate = 0;
  std::uint64_t chunks_healed = 0;  // stale index hits re-stored
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_duplicate = 0;
  std::uint64_t bytes_stored = 0;  // payload bytes put() newly inserted

  double dedup_ratio() const noexcept {
    return bytes_total == 0 ? 0.0
                            : static_cast<double>(bytes_duplicate) /
                                  static_cast<double>(bytes_total);
  }

  // The counters accumulated since `before` (a stats() snapshot).
  friend DedupStats operator-(DedupStats after, const DedupStats& before) {
    after.chunks_total -= before.chunks_total;
    after.chunks_duplicate -= before.chunks_duplicate;
    after.chunks_healed -= before.chunks_healed;
    after.bytes_total -= before.bytes_total;
    after.bytes_duplicate -= before.bytes_duplicate;
    after.bytes_stored -= before.bytes_stored;
    return after;
  }
};

// The ChunkHasher digest of every chunk of `image`, in chunk order: across
// `pool` (contiguous chunk ranges per worker) when one is given, serially on
// the calling thread otherwise. Bit-identical either way. Must not be called
// from a `pool` worker.
std::vector<ChunkDigest> hash_chunks(ThreadPool* pool, ByteSpan image,
                                     std::span<const chunking::Chunk> chunks);

// Not thread-safe: one ingest walk at a time.
class Deduplicator {
 public:
  // `index_config` picks the backend: kPaperBaseline or the ChunkStash-style
  // kSparse index (docs/dedup_index.md). A null `store` gives an owned
  // immediate-reclaim store; pass one in to share it (e.g. a deferred-reclaim
  // store a retention::RetentionManager sweeps).
  explicit Deduplicator(const IndexConfig& index_config = {},
                        std::shared_ptr<ChunkStore> store = nullptr);

  // The per-chunk decision. `stream` tags the probing client (the sparse
  // index keys its prefetch cache by it). `payload()` returns the chunk's
  // ByteSpan; it is called only when the chunk is stored, so duplicates
  // never pay for producing it.
  template <typename PayloadFn>
  IngestOutcome ingest_chunk(const ChunkDigest& digest, std::uint64_t size,
                             std::uint32_t stream, PayloadFn&& payload) {
    const IngestDecision decision = decide(digest, size, stream);
    return commit(decision, digest, size,
                  decision == IngestDecision::kDuplicate ? ByteSpan{}
                                                         : payload());
  }

  // Ingests `data` pre-split into `chunks` as stream 0, hashing every chunk
  // on the host. Returns the stats for this ingestion only.
  DedupStats ingest(ByteSpan data, const std::vector<chunking::Chunk>& chunks);

  // Same, but with digests precomputed elsewhere (the on-device fingerprint
  // stage). `digests[i]` must be the canonical hash of `chunks[i]` — the
  // ChunkStore recheck catches mismatches in debug builds. Throws
  // std::invalid_argument when the two vectors disagree in length or a
  // chunk lies outside `data`, before anything is ingested.
  DedupStats ingest(ByteSpan data, const std::vector<chunking::Chunk>& chunks,
                    const std::vector<ChunkDigest>& digests);

  // Cumulative over every ingest_chunk call.
  const DedupStats& stats() const noexcept { return stats_; }
  const IndexBackend& index() const noexcept { return *index_; }
  IndexBackend& index() noexcept { return *index_; }
  const ChunkStore& store() const noexcept { return *store_; }
  ChunkStore& store() noexcept { return *store_; }

 private:
  // Index probe, plus add_ref on a hit: kUnique on a miss, kDuplicate when
  // the reference was taken, kHealed when the hit was stale.
  IngestDecision decide(const ChunkDigest& digest, std::uint64_t size,
                        std::uint32_t stream);
  // Stores the payload unless `decision` is kDuplicate, then counts it.
  IngestOutcome commit(IngestDecision decision, const ChunkDigest& digest,
                       std::uint64_t size, ByteSpan payload);

  std::unique_ptr<IndexBackend> index_;
  std::shared_ptr<ChunkStore> store_;
  std::uint64_t next_offset_ = 0;
  DedupStats stats_;
};

}  // namespace shredder::dedup
