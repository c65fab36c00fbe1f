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

Deduplicator::Deduplicator(double index_probe_seconds)
    : index_(std::make_unique<ChunkIndex>(index_probe_seconds)) {}

Deduplicator::Deduplicator(const IndexConfig& index_config)
    : index_(make_index(index_config)) {}

DedupStats Deduplicator::ingest(ByteSpan data,
                                const std::vector<chunking::Chunk>& chunks) {
  return ingest_impl(data, chunks, nullptr);
}

DedupStats Deduplicator::ingest(ByteSpan data,
                                const std::vector<chunking::Chunk>& chunks,
                                const std::vector<ChunkDigest>& digests) {
  if (digests.size() != chunks.size()) {
    throw std::invalid_argument(
        "Deduplicator::ingest: digest/chunk count mismatch");
  }
  return ingest_impl(data, chunks, &digests);
}

DedupStats Deduplicator::ingest_impl(
    ByteSpan data, const std::vector<chunking::Chunk>& chunks,
    const std::vector<ChunkDigest>* digests) {
  DedupStats stats;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    if (c.end() > data.size()) {
      throw std::invalid_argument("Deduplicator::ingest: chunk out of range");
    }
    const ByteSpan payload = data.subspan(
        static_cast<std::size_t>(c.offset), static_cast<std::size_t>(c.size));
    const ChunkDigest digest =
        digests != nullptr ? (*digests)[i] : ChunkHasher::hash(payload);
    ++stats.chunks_total;
    stats.bytes_total += c.size;
    const auto existing = index_->lookup_or_insert(
        digest, ChunkLocation{next_offset_, c.size});
    if (existing.has_value()) {
      ++stats.chunks_duplicate;
      stats.bytes_duplicate += c.size;
      store_.add_ref(digest);
    } else {
      next_offset_ += c.size;
      store_.put(digest, payload);
    }
  }
  return stats;
}

}  // namespace shredder::dedup
