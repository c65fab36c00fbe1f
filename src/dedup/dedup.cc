#include "dedup/dedup.h"

#include <stdexcept>

namespace shredder::dedup {

std::vector<ChunkDigest> hash_chunks(ThreadPool* pool, ByteSpan image,
                                     std::span<const chunking::Chunk> chunks) {
  for (const auto& c : chunks) {
    if (c.end() > image.size()) {
      throw std::invalid_argument("hash_chunks: chunk out of range");
    }
  }
  std::vector<ChunkDigest> digests(chunks.size());
  const auto hash_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      digests[i] = ChunkHasher::hash(
          image.subspan(static_cast<std::size_t>(chunks[i].offset),
                        static_cast<std::size_t>(chunks[i].size)));
    }
  };
  if (pool) {
    pool->parallel_for(chunks.size(), hash_range);
  } else {
    hash_range(0, chunks.size());
  }
  return digests;
}

Deduplicator::Deduplicator(const IndexConfig& index_config,
                           std::shared_ptr<ChunkStore> store)
    : index_(make_index(index_config)),
      store_(store ? std::move(store) : std::make_shared<ChunkStore>()) {}

IngestDecision Deduplicator::decide(const ChunkDigest& digest,
                                    std::uint64_t size, std::uint32_t stream) {
  if (!index_->lookup_or_insert(digest, ChunkLocation{next_offset_, size},
                                stream)) {
    return IngestDecision::kUnique;
  }
  // One store reference per duplicate occurrence keeps the refcounts
  // symmetric with the manifests a delete walk replays. A failed add_ref is
  // a stale hit: the chunk was deleted and swept after the index recorded
  // it.
  return store_->add_ref(digest) ? IngestDecision::kDuplicate
                                 : IngestDecision::kHealed;
}

IngestOutcome Deduplicator::commit(IngestDecision decision,
                                   const ChunkDigest& digest,
                                   std::uint64_t size, ByteSpan payload) {
  IngestOutcome outcome{decision};
  ++stats_.chunks_total;
  stats_.bytes_total += size;
  if (outcome.duplicate()) {
    ++stats_.chunks_duplicate;
    stats_.bytes_duplicate += size;
    return outcome;
  }
  outcome.put = store_->put(digest, payload);
  next_offset_ += size;
  if (decision == IngestDecision::kHealed) ++stats_.chunks_healed;
  if (outcome.put == PutOutcome::kInserted) stats_.bytes_stored += size;
  return outcome;
}

DedupStats Deduplicator::ingest(ByteSpan data,
                                const std::vector<chunking::Chunk>& chunks) {
  return ingest(data, chunks, hash_chunks(nullptr, data, chunks));
}

DedupStats Deduplicator::ingest(ByteSpan data,
                                const std::vector<chunking::Chunk>& chunks,
                                const std::vector<ChunkDigest>& digests) {
  if (digests.size() != chunks.size()) {
    throw std::invalid_argument(
        "Deduplicator::ingest: digest/chunk count mismatch");
  }
  for (const auto& c : chunks) {
    if (c.end() > data.size()) {
      throw std::invalid_argument("Deduplicator::ingest: chunk out of range");
    }
  }
  const DedupStats before = stats_;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    ingest_chunk(digests[i], c.size, /*stream=*/0, [&] {
      return data.subspan(static_cast<std::size_t>(c.offset),
                          static_cast<std::size_t>(c.size));
    });
  }
  return stats_ - before;
}

}  // namespace shredder::dedup
