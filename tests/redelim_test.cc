// Tests for the redundancy-elimination middlebox (paper §9 future work):
// LRU content cache determinism, round-trip correctness, savings behavior
// and sender/receiver cache synchronization.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "redelim/middlebox.h"

namespace shredder::redelim {
namespace {

core::ShredderConfig shredder_config() {
  core::ShredderConfig cfg;
  cfg.chunker.window = 16;
  cfg.chunker.mask_bits = 10;  // ~1 KB chunks
  cfg.chunker.marker = 0x42;
  cfg.buffer_bytes = 128 * 1024;
  cfg.sim_threads = 4;
  return cfg;
}

dedup::ChunkDigest digest_of(std::uint64_t v) {
  return dedup::ChunkHasher::hash(
      ByteSpan{reinterpret_cast<const std::uint8_t*>(&v), sizeof(v)});
}

// --- ContentCache ---

TEST(ContentCache, PutGetRoundTrip) {
  ContentCache cache(1 << 20);
  const auto data = random_bytes(100, 1);
  cache.put(digest_of(1), as_bytes(data));
  EXPECT_EQ(cache.get(digest_of(1)).value(), data);
  EXPECT_FALSE(cache.get(digest_of(2)).has_value());
}

TEST(ContentCache, EvictsLeastRecentlyUsed) {
  ContentCache cache(250);  // fits two 100-byte chunks
  const auto a = random_bytes(100, 1);
  const auto b = random_bytes(100, 2);
  const auto c = random_bytes(100, 3);
  cache.put(digest_of(1), as_bytes(a));
  cache.put(digest_of(2), as_bytes(b));
  cache.get(digest_of(1));  // refresh 1; 2 becomes LRU
  cache.put(digest_of(3), as_bytes(c));
  EXPECT_TRUE(cache.contains(digest_of(1)));
  EXPECT_FALSE(cache.contains(digest_of(2)));
  EXPECT_TRUE(cache.contains(digest_of(3)));
  EXPECT_LE(cache.bytes(), 250u);
}

TEST(ContentCache, RefreshDoesNotDuplicate) {
  ContentCache cache(1 << 20);
  const auto a = random_bytes(100, 1);
  cache.put(digest_of(1), as_bytes(a));
  cache.put(digest_of(1), as_bytes(a));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 100u);
}

TEST(ContentCache, RejectsZeroCapacity) {
  EXPECT_THROW(ContentCache(0), std::invalid_argument);
}

// --- Middlebox pair ---

TEST(Middlebox, FirstFlowIsAllLiterals) {
  core::Shredder shredder(shredder_config());
  SenderMiddlebox sender(shredder, 16 << 20);
  ReceiverMiddlebox receiver(16 << 20);
  const auto flow = random_bytes(200000, 7);
  const auto encoded = sender.encode(as_bytes(flow));
  EXPECT_EQ(encoded.tokens, 0u);
  EXPECT_GE(encoded.wire_bytes, flow.size());  // framing overhead only
  EXPECT_EQ(receiver.decode(encoded), flow);
}

TEST(Middlebox, RepeatedFlowIsNearlyAllTokens) {
  core::Shredder shredder(shredder_config());
  SenderMiddlebox sender(shredder, 16 << 20);
  ReceiverMiddlebox receiver(16 << 20);
  const auto flow = random_bytes(200000, 8);
  receiver.decode(sender.encode(as_bytes(flow)));
  const auto again = sender.encode(as_bytes(flow));
  EXPECT_EQ(again.tokens, again.segments.size());
  EXPECT_GT(again.savings(), 0.95);
  EXPECT_EQ(receiver.decode(again), flow);
}

TEST(Middlebox, PartialOverlapSavesProportionally) {
  core::Shredder shredder(shredder_config());
  SenderMiddlebox sender(shredder, 16 << 20);
  ReceiverMiddlebox receiver(16 << 20);
  const auto v1 = random_bytes(500000, 9);
  receiver.decode(sender.encode(as_bytes(v1)));
  // 10% rewritten: most chunks should come back as tokens.
  const auto v2 = mutate_bytes(as_bytes(v1), 0.10, 10);
  const auto encoded = sender.encode(as_bytes(v2));
  EXPECT_GT(encoded.savings(), 0.5);
  EXPECT_LT(encoded.savings(), 0.99);
  EXPECT_EQ(receiver.decode(encoded), v2);
}

TEST(Middlebox, CachesStaySynchronizedUnderEviction) {
  // Small caches force evictions; the streams must still decode because the
  // receiver evicts in exactly the same order as the sender.
  core::Shredder shredder(shredder_config());
  SenderMiddlebox sender(shredder, 64 * 1024);
  ReceiverMiddlebox receiver(64 * 1024);
  SplitMix64 rng(11);
  ByteVec base = random_bytes(100000, 12);
  for (int round = 0; round < 8; ++round) {
    const auto flow = mutate_bytes(as_bytes(base), 0.2, rng.next());
    const auto encoded = sender.encode(as_bytes(flow));
    EXPECT_EQ(receiver.decode(encoded), flow) << "round " << round;
    base = flow;
  }
}

TEST(Middlebox, TokenForUnknownChunkThrows) {
  ReceiverMiddlebox receiver(1 << 20);
  EncodedStream bogus;
  Segment token;
  token.digest = digest_of(99);
  bogus.segments.push_back(token);
  EXPECT_THROW(receiver.decode(bogus), std::runtime_error);
}

TEST(Middlebox, TokenWireSizeIsDigestPlusLength) {
  // A token carries one ChunkDigest (SHA-256) and an 8-byte length; a literal
  // carries its payload and the same length.
  Segment token;
  token.digest = digest_of(1);
  EXPECT_EQ(token.wire_bytes(), sizeof(dedup::ChunkDigest) + 8);
  EXPECT_EQ(token.wire_bytes(), 40u);
  Segment literal;
  literal.literal = random_bytes(100, 1);
  EXPECT_EQ(literal.wire_bytes(), 108u);
}

TEST(Middlebox, WireAccounting) {
  core::Shredder shredder(shredder_config());
  SenderMiddlebox sender(shredder, 16 << 20);
  const auto flow = random_bytes(100000, 13);
  const auto encoded = sender.encode(as_bytes(flow));
  std::uint64_t sum = 0;
  for (const auto& seg : encoded.segments) sum += seg.wire_bytes();
  EXPECT_EQ(sum, encoded.wire_bytes);
  EXPECT_EQ(encoded.input_bytes, flow.size());
}

}  // namespace
}  // namespace shredder::redelim
