// Network redundancy elimination middlebox (paper §9 future work, building
// on EndRE/SmartRE from §8's related work).
//
// A pair of middleboxes brackets a WAN link. The sender-side box chunks the
// outgoing byte stream with Shredder, replaces chunks it has seen before
// with small tokens, and keeps a bounded content cache; the receiver-side
// box holds the mirror cache and re-expands tokens. The paper's point is
// that chunking throughput is what gates deploying this at line rate —
// which is exactly what the GPU-accelerated chunker provides.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chunking/chunk.h"
#include "common/bytes.h"
#include "core/shredder.h"
#include "dedup/digest.h"

namespace shredder::redelim {

// One element of the encoded stream: either a literal chunk payload or a
// token referencing a previously transmitted chunk.
struct Segment {
  dedup::ChunkDigest digest;
  ByteVec literal;  // empty => token

  bool is_token() const noexcept { return literal.empty(); }
  // Bytes this segment occupies on the wire (tokens cost digest + length).
  std::uint64_t wire_bytes() const noexcept {
    return is_token() ? sizeof(dedup::ChunkDigest) + 8 : literal.size() + 8;
  }
};

struct EncodedStream {
  std::vector<Segment> segments;
  std::uint64_t input_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t tokens = 0;

  double savings() const noexcept {
    return input_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(wire_bytes) /
                           static_cast<double>(input_bytes);
  }
};

// Bounded LRU content cache, identical on both sides of the link. Eviction
// is deterministic (strict LRU on insertion/refresh order), so sender and
// receiver stay synchronized as long as they see the same segment sequence.
class ContentCache {
 public:
  explicit ContentCache(std::uint64_t capacity_bytes);

  // Inserts (or refreshes) a chunk; evicts LRU entries beyond capacity.
  void put(const dedup::ChunkDigest& digest, ByteSpan payload);
  // Looks a chunk up and refreshes its LRU position.
  std::optional<ByteVec> get(const dedup::ChunkDigest& digest);
  bool contains(const dedup::ChunkDigest& digest) const;

  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t entries() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    ByteVec payload;
    std::list<dedup::ChunkDigest>::iterator lru_pos;
  };
  void evict_to_capacity();

  std::uint64_t capacity_;
  std::uint64_t bytes_ = 0;
  std::list<dedup::ChunkDigest> lru_;  // front = most recent
  std::unordered_map<dedup::ChunkDigest, Entry, dedup::ChunkDigestHash>
      entries_;
};

// Sender-side box: chunk + tokenize.
class SenderMiddlebox {
 public:
  // `shredder` provides the chunking service; `cache_bytes` bounds the
  // content cache on both ends.
  SenderMiddlebox(core::Shredder& shredder, std::uint64_t cache_bytes);

  // Encodes one outgoing flow (e.g. an HTTP response or replication batch).
  EncodedStream encode(ByteSpan flow);

  const ContentCache& cache() const noexcept { return cache_; }

 private:
  core::Shredder* shredder_;
  ContentCache cache_;
};

// Receiver-side box: re-expand tokens. Throws std::runtime_error on a token
// miss (sender/receiver caches out of sync — a protocol bug).
class ReceiverMiddlebox {
 public:
  explicit ReceiverMiddlebox(std::uint64_t cache_bytes);

  ByteVec decode(const EncodedStream& stream);

  const ContentCache& cache() const noexcept { return cache_; }

 private:
  ContentCache cache_;
};

}  // namespace shredder::redelim
