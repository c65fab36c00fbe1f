// Tests for the dedup substrate: SHA-1/SHA-256 against official vectors,
// chunk index, content-addressed store, and the deduplicator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunking/cdc.h"
#include "common/rng.h"
#include "dedup/dedup.h"
#include "dedup/index.h"
#include "dedup/sha1.h"
#include "dedup/sha256.h"
#include "dedup/sha256_compress.h"
#include "dedup/store.h"

namespace shredder::dedup {
namespace {

ByteSpan str_bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
}

// --- SHA-1: FIPS 180-1 / RFC 3174 vectors ---

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::hash({}).hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hash(str_bytes("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      Sha1::hash(str_bytes(
                     "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha1::hash(as_bytes(a)).hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const auto data = random_bytes(100000, 1);
  Sha1 h;
  std::size_t pos = 0;
  SplitMix64 rng(2);
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(300), data.size() - pos);
    h.update(ByteSpan(data).subspan(pos, n));
    pos += n;
  }
  EXPECT_EQ(h.finish(), Sha1::hash(as_bytes(data)));
}

TEST(Sha1, FinishResets) {
  Sha1 h;
  h.update(str_bytes("abc"));
  h.finish();
  h.update(str_bytes("abc"));
  EXPECT_EQ(h.finish().hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Prefix64MatchesHexPrefix) {
  const auto d = Sha1::hash(str_bytes("abc"));
  EXPECT_EQ(d.prefix64(), 0xa9993e364706816aull);
}

// --- SHA-256: FIPS 180-4 vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash(str_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash(str_bytes(
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha256::hash(as_bytes(a)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto data = random_bytes(50000, 3);
  Sha256 h;
  std::size_t pos = 0;
  SplitMix64 rng(4);
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(177), data.size() - pos);
    h.update(ByteSpan(data).subspan(pos, n));
    pos += n;
  }
  EXPECT_EQ(h.finish(), Sha256::hash(as_bytes(data)));
}

// --- SHA-256: scalar vs SHA-NI compress differential ---
//
// The padding here is written out independently of Sha256::finish(), so
// each compress is checked on its own and Sha256 (whichever compress it
// dispatched to) is checked against the scalar oracle.

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t) noexcept;

Sha256Digest digest_with(CompressFn compress, ByteSpan data) {
  std::uint32_t state[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                            0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                            0x1f83d9abu, 0x5be0cd19u};
  const std::size_t whole = data.size() / 64;
  compress(state, data.data(), whole);
  ByteVec tail(data.begin() + static_cast<std::ptrdiff_t>(whole * 64),
               data.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  compress(state, tail.data(), tail.size() / 64);
  Sha256Digest d;
  for (std::size_t i = 0; i < 32; ++i) {
    d.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return d;
}

Sha256Digest scalar_digest(ByteSpan data) {
  return digest_with(&detail::sha256_compress_scalar, data);
}

// Lengths 0..130, then 64k-1, 64k, 64k+1 up to 8 KB.
std::vector<std::size_t> differential_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 130; ++n) lens.push_back(n);
  for (std::size_t k = 3; k * 64 <= 8192; ++k) {
    lens.insert(lens.end(), {k * 64 - 1, k * 64, k * 64 + 1});
  }
  return lens;
}

TEST(Sha256Compress, ScalarMatchesNistVectors) {
  EXPECT_EQ(scalar_digest({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(scalar_digest(str_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      scalar_digest(str_bytes(
                        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  const std::string a(1000000, 'a');
  EXPECT_EQ(scalar_digest(as_bytes(a)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Compress, DispatchedHashMatchesScalarEveryLength) {
  const auto data = random_bytes(8192 + 1, 21);
  for (const std::size_t n : differential_lengths()) {
    const ByteSpan msg = ByteSpan(data).first(n);
    ASSERT_EQ(Sha256::hash(msg), scalar_digest(msg)) << "length " << n;
  }
}

TEST(Sha256Compress, ShaNiMatchesScalarEveryLength) {
  if (!detail::sha256_shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  const auto data = random_bytes(8192 + 1, 22);
  for (const std::size_t n : differential_lengths()) {
    const ByteSpan msg = ByteSpan(data).first(n);
    ASSERT_EQ(digest_with(&detail::sha256_compress_shani, msg),
              scalar_digest(msg))
        << "length " << n;
  }
}

TEST(Sha256Compress, EveryTwoWaySplitMatchesScalar) {
  const auto data = random_bytes(300, 24);
  const Sha256Digest expected = scalar_digest(as_bytes(data));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(ByteSpan(data).first(split));
    h.update(ByteSpan(data).subspan(split));
    ASSERT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha256Compress, CarriedContextAcrossThreeUpdatesMatchesScalar) {
  // fingerprint_on_gpu carries an open chunk's context from one buffer to
  // the next by copying it; do the same with uneven pieces that straddle
  // block boundaries.
  const auto data = random_bytes(3 * 1000 + 77, 25);
  const std::size_t cuts[] = {0, 1000 + 13, 2 * 1000 + 64, data.size()};
  Sha256 carry;
  for (int piece = 0; piece < 3; ++piece) {
    Sha256 ctx = carry;
    ctx.update(
        ByteSpan(data).subspan(cuts[piece], cuts[piece + 1] - cuts[piece]));
    carry = ctx;
  }
  EXPECT_EQ(carry.finish(), scalar_digest(as_bytes(data)));
}

// --- ChunkIndex ---

TEST(ChunkIndex, LookupOrInsertSemantics) {
  ChunkIndex index;
  const auto d = ChunkHasher::hash(str_bytes("chunk-1"));
  EXPECT_FALSE(index.lookup_or_insert(d, {0, 100}).has_value());
  const auto existing = index.lookup_or_insert(d, {999, 1});
  ASSERT_TRUE(existing.has_value());
  EXPECT_EQ(existing->store_offset, 0u);
  EXPECT_EQ(existing->size, 100u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(ChunkIndex, LookupMiss) {
  ChunkIndex index;
  EXPECT_FALSE(index.lookup(ChunkHasher::hash(str_bytes("nope"))).has_value());
}

TEST(ChunkIndex, ProbeAccountingAndVirtualCost) {
  ChunkIndex index(1e-6);
  const auto d = ChunkHasher::hash(str_bytes("x"));
  index.lookup_or_insert(d, {0, 1});
  index.lookup(d);
  index.lookup(d);
  EXPECT_EQ(index.probes(), 3u);
  EXPECT_NEAR(index.virtual_seconds(), 3e-6, 1e-12);
}

TEST(ChunkIndex, RejectsNegativeProbeCost) {
  EXPECT_THROW(ChunkIndex(-1.0), std::invalid_argument);
}

TEST(ChunkIndex, ConcurrentInsertsExactlyOneWinner) {
  ChunkIndex index;
  const auto d = ChunkHasher::hash(str_bytes("contested"));
  std::atomic<int> inserted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        if (!index
                 .lookup_or_insert(d, {static_cast<std::uint64_t>(t), 1})
                 .has_value()) {
          inserted++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(inserted.load(), 1);
  EXPECT_EQ(index.size(), 1u);
}

// --- ChunkStore ---

TEST(ChunkStore, ReleaseRefReclaimsOnLastReference) {
  ChunkStore store;
  const auto a = random_bytes(64, 7);
  const auto b = random_bytes(32, 8);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  store.put(da, as_bytes(a));
  store.put(db, as_bytes(b));
  store.add_ref(da);  // a: 2 refs, b: 1 ref
  std::uint64_t remaining = 99;
  EXPECT_EQ(store.release_ref(da, &remaining), ReleaseOutcome::kLive);
  EXPECT_EQ(remaining, 1u);
  EXPECT_TRUE(store.contains(da));
  EXPECT_EQ(store.release_ref(da, &remaining), ReleaseOutcome::kReclaimed);
  EXPECT_EQ(remaining, 0u);
  EXPECT_FALSE(store.contains(da));  // reclaimed with the last reference
  EXPECT_EQ(store.unique_chunks(), 1u);
  EXPECT_EQ(store.unique_bytes(), b.size());
  EXPECT_EQ(store.total_refs(), 1u);
}

TEST(ChunkStore, ReleaseRefUnknownDigestIsTypedAndInert) {
  ChunkStore store;
  const auto a = random_bytes(64, 7);
  const auto da = ChunkHasher::hash(as_bytes(a));
  std::uint64_t remaining = 99;
  // Unknown digest: typed outcome, `remaining` untouched, store unchanged.
  EXPECT_EQ(store.release_ref(da, &remaining),
            ReleaseOutcome::kUnknownDigest);
  EXPECT_EQ(remaining, 99u);
  EXPECT_EQ(store.total_refs(), 0u);
  store.put(da, as_bytes(a));
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kReclaimed);
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kUnknownDigest);
}

TEST(ChunkStore, DeferredReclaimParksAndResurrects) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 21);
  const auto da = ChunkHasher::hash(as_bytes(a));
  store.put(da, as_bytes(a));
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kDeferred);
  // Parked, not freed: still resident, counted as zero-ref.
  EXPECT_TRUE(store.contains(da));
  EXPECT_EQ(store.zero_ref_chunks(), 1u);
  EXPECT_EQ(store.zero_ref_bytes(), a.size());
  EXPECT_EQ(store.ref_count(da), 0u);
  // Double release on a parked chunk is a typed error, not an underflow.
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kNoRefs);
  // add_ref resurrects.
  EXPECT_TRUE(store.add_ref(da));
  EXPECT_EQ(store.ref_count(da), 1u);
  EXPECT_EQ(store.zero_ref_chunks(), 0u);
  // Park again, then resurrect via put.
  EXPECT_EQ(store.release_ref(da), ReleaseOutcome::kDeferred);
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kRefAdded);
  EXPECT_EQ(store.ref_count(da), 1u);
  EXPECT_EQ(store.zero_ref_bytes(), 0u);
}

TEST(ChunkStore, SweepFreesOnlyUnkeptZeroRefChunks) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 22);
  const auto b = random_bytes(32, 23);
  const auto c = random_bytes(16, 24);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  const auto dc = ChunkHasher::hash(as_bytes(c));
  store.put(da, as_bytes(a));
  store.put(db, as_bytes(b));
  store.put(dc, as_bytes(c));
  store.release_ref(da);
  store.release_ref(db);  // a and b parked; c live
  const auto stats =
      store.sweep_zero_refs([&](const ChunkDigest& d) { return d == db; });
  EXPECT_EQ(stats.scanned, 3u);
  EXPECT_EQ(stats.freed_chunks, 1u);
  EXPECT_EQ(stats.freed_bytes, a.size());
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_FALSE(store.contains(da));
  EXPECT_TRUE(store.contains(db));  // vetoed by keep (still pinned)
  EXPECT_TRUE(store.contains(dc));  // live, never a candidate
  EXPECT_EQ(store.zero_ref_chunks(), 1u);
}

TEST(ChunkStore, OccupancyObserverSeesEveryMutation) {
  ChunkStore store(/*deferred_reclaim=*/true);
  StoreOccupancy last;
  int calls = 0;
  store.set_observer([&](const StoreOccupancy& o) {
    last = o;
    ++calls;
  });
  EXPECT_EQ(calls, 1);  // installation publishes the current state
  const auto a = random_bytes(64, 25);
  const auto da = ChunkHasher::hash(as_bytes(a));
  store.put(da, as_bytes(a));
  EXPECT_EQ(last.chunks, 1u);
  EXPECT_EQ(last.bytes, a.size());
  EXPECT_EQ(last.refs, 1u);
  store.add_ref(da);
  EXPECT_EQ(last.refs, 2u);
  store.release_ref(da);
  store.release_ref(da);
  EXPECT_EQ(last.refs, 0u);
  EXPECT_EQ(last.zero_ref_chunks, 1u);
  store.sweep_zero_refs();
  EXPECT_EQ(last.chunks, 0u);
  EXPECT_EQ(last.bytes, 0u);
  EXPECT_GE(calls, 6);
}

TEST(ChunkStore, RebuildRefsRecomputesFromAuthority) {
  ChunkStore store(/*deferred_reclaim=*/true);
  const auto a = random_bytes(64, 26);
  const auto b = random_bytes(32, 27);
  const auto da = ChunkHasher::hash(as_bytes(a));
  const auto db = ChunkHasher::hash(as_bytes(b));
  store.put(da, as_bytes(a));
  store.put(db, as_bytes(b));
  store.add_ref(da);  // a: 2, b: 1 — pretend these drifted from the truth
  std::unordered_map<ChunkDigest, std::uint64_t, ChunkDigestHash> counts;
  counts[da] = 5;  // manifests say 5 occurrences
  const auto zeroed = store.rebuild_refs(counts);  // b unreferenced
  EXPECT_EQ(store.ref_count(da), 5u);
  EXPECT_EQ(store.ref_count(db), 0u);  // parked, not freed
  EXPECT_EQ(store.total_refs(), 5u);
  ASSERT_EQ(zeroed.size(), 1u);
  EXPECT_EQ(zeroed[0], db);
  // Immediate-reclaim mode frees instead of parking.
  ChunkStore eager;
  eager.put(da, as_bytes(a));
  eager.put(db, as_bytes(b));
  const auto zeroed2 = eager.rebuild_refs(counts);
  EXPECT_TRUE(zeroed2.empty());
  EXPECT_FALSE(eager.contains(db));
  EXPECT_EQ(eager.unique_bytes(), a.size());
}

TEST(ChunkStore, EraseRemovesRegardlessOfRefs) {
  ChunkStore store;
  const auto a = random_bytes(64, 9);
  const auto da = ChunkHasher::hash(as_bytes(a));
  store.put(da, as_bytes(a));
  store.add_ref(da);
  EXPECT_EQ(store.erase(da), EraseOutcome::kErased);
  EXPECT_FALSE(store.contains(da));
  EXPECT_EQ(store.total_refs(), 0u);
  EXPECT_EQ(store.unique_bytes(), 0u);
  // Unknown digest: typed outcome (negative-path contract).
  EXPECT_EQ(store.erase(da), EraseOutcome::kUnknownDigest);
}

TEST(ChunkStore, PutReportsInsertedVsRefAdded) {
  ChunkStore store;
  const auto a = random_bytes(64, 10);
  const auto da = ChunkHasher::hash(as_bytes(a));
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kInserted);
  EXPECT_EQ(store.put(da, as_bytes(a)), PutOutcome::kRefAdded);
  EXPECT_EQ(store.total_refs(), 2u);
  EXPECT_EQ(store.unique_chunks(), 1u);
}

TEST(ChunkStore, PutGetRoundTrip) {
  ChunkStore store;
  const auto data = random_bytes(1000, 5);
  const auto d = ChunkHasher::hash(as_bytes(data));
  EXPECT_EQ(store.put(d, as_bytes(data)), PutOutcome::kInserted);
  EXPECT_EQ(store.put(d, as_bytes(data)), PutOutcome::kRefAdded);  // duplicate
  EXPECT_EQ(store.get(d).value(), data);
  EXPECT_EQ(store.unique_chunks(), 1u);
  EXPECT_EQ(store.unique_bytes(), 1000u);
  EXPECT_EQ(store.total_refs(), 2u);
}

TEST(ChunkStore, GetMissing) {
  ChunkStore store;
  EXPECT_FALSE(store.get(ChunkHasher::hash(str_bytes("missing"))).has_value());
  EXPECT_FALSE(store.add_ref(ChunkHasher::hash(str_bytes("missing"))));
}

TEST(ChunkStore, AddRefCounts) {
  ChunkStore store;
  const auto data = random_bytes(10, 6);
  const auto d = ChunkHasher::hash(as_bytes(data));
  store.put(d, as_bytes(data));
  EXPECT_TRUE(store.add_ref(d));
  EXPECT_EQ(store.total_refs(), 2u);
}

// --- Deduplicator ---

// --- hash_chunks: the backup walk's one host-hash path ---

TEST(HashChunks, PoolAndSerialMatchChunkHasher) {
  const auto data = random_bytes(256 * 1024, 13);
  chunking::ChunkerConfig cfg;
  cfg.window = 16;
  cfg.mask_bits = 8;
  cfg.marker = 0x42;
  const rabin::RabinTables tables(cfg.window);
  const auto chunks = chunking::chunk_serial(tables, cfg, as_bytes(data));
  std::vector<ChunkDigest> expected;
  for (const auto& c : chunks) {
    expected.push_back(ChunkHasher::hash(
        ByteSpan(data).subspan(static_cast<std::size_t>(c.offset),
                               static_cast<std::size_t>(c.size))));
  }
  ThreadPool pool(3);
  EXPECT_EQ(hash_chunks(nullptr, as_bytes(data), chunks), expected);
  EXPECT_EQ(hash_chunks(&pool, as_bytes(data), chunks), expected);
  const std::vector<chunking::Chunk> out_of_range = {{50, 100}};
  const auto small = random_bytes(100, 14);
  EXPECT_THROW(hash_chunks(nullptr, as_bytes(small), out_of_range),
               std::invalid_argument);
  EXPECT_THROW(hash_chunks(&pool, as_bytes(small), out_of_range),
               std::invalid_argument);
}

TEST(Deduplicator, FirstIngestAllUnique) {
  const auto data = random_bytes(256 * 1024, 7);
  chunking::ChunkerConfig cfg;
  cfg.window = 16;
  cfg.mask_bits = 8;
  cfg.marker = 0x42;
  const rabin::RabinTables tables(cfg.window);
  const auto chunks = chunking::chunk_serial(tables, cfg, as_bytes(data));
  Deduplicator dedup;
  const auto stats = dedup.ingest(as_bytes(data), chunks);
  EXPECT_EQ(stats.chunks_total, chunks.size());
  EXPECT_EQ(stats.chunks_duplicate, 0u);
  EXPECT_EQ(stats.bytes_total, data.size());
  EXPECT_EQ(dedup.store().unique_bytes(), data.size());
}

TEST(Deduplicator, SecondIngestFullyDuplicate) {
  const auto data = random_bytes(128 * 1024, 8);
  chunking::ChunkerConfig cfg;
  cfg.window = 16;
  cfg.mask_bits = 8;
  cfg.marker = 0x42;
  const rabin::RabinTables tables(cfg.window);
  const auto chunks = chunking::chunk_serial(tables, cfg, as_bytes(data));
  Deduplicator dedup;
  dedup.ingest(as_bytes(data), chunks);
  const auto stats = dedup.ingest(as_bytes(data), chunks);
  EXPECT_EQ(stats.bytes_duplicate, stats.bytes_total);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio(), 1.0);
}

TEST(Deduplicator, MutatedVersionMostlyDuplicate) {
  // The end-to-end CDC dedup property on a 5% mutated payload.
  const auto v1 = random_bytes(1 << 20, 9);
  const auto v2 = mutate_bytes(as_bytes(v1), 0.05, 10);
  chunking::ChunkerConfig cfg;
  cfg.window = 32;
  cfg.mask_bits = 11;  // ~2 KB chunks
  cfg.marker = 0x42;
  const rabin::RabinTables tables(cfg.window);
  Deduplicator dedup;
  dedup.ingest(as_bytes(v1), chunking::chunk_serial(tables, cfg, as_bytes(v1)));
  const auto stats = dedup.ingest(
      as_bytes(v2), chunking::chunk_serial(tables, cfg, as_bytes(v2)));
  EXPECT_GT(stats.dedup_ratio(), 0.6);
  EXPECT_LT(stats.dedup_ratio(), 1.0);
}

TEST(Deduplicator, RejectsOutOfRangeChunks) {
  Deduplicator dedup;
  const auto data = random_bytes(100, 11);
  EXPECT_THROW(dedup.ingest(as_bytes(data), {{50, 100}}),
               std::invalid_argument);
}

TEST(Deduplicator, ReconstructionFromStore) {
  // Everything ingested can be reassembled from the content-addressed store:
  // the backup-agent property.
  const auto data = random_bytes(512 * 1024, 12);
  chunking::ChunkerConfig cfg;
  cfg.window = 16;
  cfg.mask_bits = 9;
  cfg.marker = 0x42;
  const rabin::RabinTables tables(cfg.window);
  const auto chunks = chunking::chunk_serial(tables, cfg, as_bytes(data));
  Deduplicator dedup;
  dedup.ingest(as_bytes(data), chunks);
  ByteVec reassembled;
  for (const auto& c : chunks) {
    const auto payload = ByteSpan(data).subspan(c.offset, c.size);
    const auto stored = dedup.store().get(ChunkHasher::hash(payload));
    ASSERT_TRUE(stored.has_value());
    reassembled.insert(reassembled.end(), stored->begin(), stored->end());
  }
  EXPECT_EQ(reassembled, data);
}

}  // namespace
}  // namespace shredder::dedup
