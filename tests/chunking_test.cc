// Tests for the chunking backends: serial CDC, fixed, SampleByte, parallel
// SPMD chunker, arena allocators, and cross-backend equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iostream>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "chunking/arena.h"
#include "chunking/cdc.h"
#include "chunking/chunk.h"
#include "chunking/fixed.h"
#include "chunking/minmax.h"
#include "chunking/parallel.h"
#include "chunking/samplebyte.h"
#include "common/rng.h"
#include "core/kernels.h"
#include "gpusim/device.h"

namespace shredder::chunking {
namespace {

using rabin::RabinTables;

ChunkerConfig small_config() {
  ChunkerConfig c;
  c.window = 16;
  c.mask_bits = 8;  // expected 256-byte chunks: plenty of boundaries
  c.marker = 0x42;
  return c;
}

// --- ChunkerConfig validation ---

TEST(ChunkerConfig, ValidatesWindow) {
  ChunkerConfig c = small_config();
  c.window = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.window = 257;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ChunkerConfig, ValidatesMarkerWidth) {
  ChunkerConfig c = small_config();
  c.marker = 0x1ff;  // 9 bits, mask is 8
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ChunkerConfig, ValidatesMinMax) {
  ChunkerConfig c = small_config();
  c.min_size = 100;
  c.max_size = 50;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.min_size = 0;
  c.max_size = 8;  // below window
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(ChunkerConfig, ExpectedChunkSize) {
  ChunkerConfig c;
  c.mask_bits = 13;
  EXPECT_EQ(c.expected_chunk_size(), 8192u);
}

// --- boundaries_to_chunks ---

TEST(BoundariesToChunks, PartitionsStream) {
  const auto chunks = boundaries_to_chunks({10, 25, 40}, 40);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (Chunk{0, 10}));
  EXPECT_EQ(chunks[1], (Chunk{10, 15}));
  EXPECT_EQ(chunks[2], (Chunk{25, 15}));
}

TEST(BoundariesToChunks, EmptyStream) {
  EXPECT_TRUE(boundaries_to_chunks({}, 0).empty());
  EXPECT_THROW(boundaries_to_chunks({1}, 0), std::invalid_argument);
}

TEST(BoundariesToChunks, RejectsMalformed) {
  EXPECT_THROW(boundaries_to_chunks({10, 5, 40}, 40), std::invalid_argument);
  EXPECT_THROW(boundaries_to_chunks({10, 25}, 40), std::invalid_argument);
  EXPECT_THROW(boundaries_to_chunks({10, 50}, 40), std::invalid_argument);
}

// --- Serial CDC ---

TEST(SerialCdc, BoundariesMatchWindowFingerprints) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(64 * 1024, 21);
  const auto raw = find_raw_boundaries(tables, config, as_bytes(data));
  ASSERT_FALSE(raw.empty());
  for (std::uint64_t end : raw) {
    ASSERT_GE(end, config.window);
    const auto window =
        ByteSpan(data).subspan(end - config.window, config.window);
    EXPECT_TRUE(config.is_boundary_fp(tables.fingerprint(window)))
        << "boundary at " << end;
  }
}

TEST(SerialCdc, AllMatchingPositionsAreFound) {
  // Exhaustively verify: every window-full position either is or is not a
  // boundary exactly as the raw list says.
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(8 * 1024, 22);
  const auto raw = find_raw_boundaries(tables, config, as_bytes(data));
  std::set<std::uint64_t> raw_set(raw.begin(), raw.end());
  rabin::RabinWindow window(tables);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint64_t fp = window.push(data[i]);
    const bool expect_boundary = window.full() && config.is_boundary_fp(fp);
    EXPECT_EQ(raw_set.contains(i + 1), expect_boundary) << "position " << i + 1;
  }
}

TEST(SerialCdc, ExpectedChunkSizeRoughlyMatchesMask) {
  ChunkerConfig c = small_config();
  c.mask_bits = 10;  // expected 1 KiB
  const RabinTables tables(c.window);
  const auto data = random_bytes(4 * 1024 * 1024, 23);
  const auto raw = find_raw_boundaries(tables, c, as_bytes(data));
  const double mean_gap =
      static_cast<double>(data.size()) / static_cast<double>(raw.size());
  EXPECT_GT(mean_gap, 700.0);
  EXPECT_LT(mean_gap, 1500.0);
}

TEST(SerialCdc, ChunksCoverStream) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(32 * 1024, 24);
  const auto chunks = chunk_serial(tables, config, as_bytes(data));
  ASSERT_FALSE(chunks.empty());
  std::uint64_t pos = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, pos);
    EXPECT_GT(c.size, 0u);
    pos = c.end();
  }
  EXPECT_EQ(pos, data.size());
}

TEST(SerialCdc, EmptyInput) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  EXPECT_TRUE(find_raw_boundaries(tables, config, {}).empty());
  EXPECT_TRUE(chunk_serial(tables, config, {}).empty());
}

TEST(SerialCdc, InputSmallerThanWindow) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(config.window - 1, 25);
  EXPECT_TRUE(find_raw_boundaries(tables, config, as_bytes(data)).empty());
  const auto chunks = chunk_serial(tables, config, as_bytes(data));
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size, data.size());
}

TEST(SerialCdc, LocalEditOnlyMovesNearbyBoundaries) {
  // The content-defined property (why CDC beats fixed-size for dedup): an
  // edit changes boundaries only within ~window+chunk of the edit site.
  const auto config = small_config();
  const RabinTables tables(config.window);
  auto data = random_bytes(256 * 1024, 26);
  const auto before = find_raw_boundaries(tables, config, as_bytes(data));
  const std::size_t edit_at = 128 * 1024;
  for (std::size_t i = 0; i < 64; ++i) data[edit_at + i] ^= 0x5a;
  const auto after = find_raw_boundaries(tables, config, as_bytes(data));
  // Boundaries well before and well after the edit are unchanged.
  for (std::uint64_t b : before) {
    if (b + 4096 < edit_at) {
      EXPECT_TRUE(std::binary_search(after.begin(), after.end(), b));
    }
  }
  for (std::uint64_t b : after) {
    if (b > edit_at + 64 + config.window + 4096) {
      EXPECT_TRUE(std::binary_search(before.begin(), before.end(), b));
    }
  }
}

TEST(StreamScanner, FeedGranularityInvariant) {
  // Feeding byte-by-byte, in odd-sized pieces, or all at once must emit the
  // same boundaries.
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(16 * 1024, 27);
  const auto whole = find_raw_boundaries(tables, config, as_bytes(data));

  for (std::size_t piece : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{100}, std::size_t{4096}}) {
    std::vector<std::uint64_t> got;
    StreamScanner scanner(tables, config);
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t len = std::min(piece, data.size() - pos);
      scanner.feed(ByteSpan(data).subspan(pos, len),
                   [&](std::uint64_t e, std::uint64_t) { got.push_back(e); });
      pos += len;
    }
    EXPECT_EQ(got, whole) << "piece size " << piece;
  }
}

TEST(StreamScanner, WarmupSuppressesEarlyBoundaries) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(8 * 1024, 28);
  const auto all = find_raw_boundaries(tables, config, as_bytes(data));
  ASSERT_GT(all.size(), 2u);
  const std::uint64_t cut = all[all.size() / 2];
  std::vector<std::uint64_t> got;
  scan_raw(tables, config, as_bytes(data), /*warmup=*/cut, /*base=*/0,
           [&](std::uint64_t e, std::uint64_t) { got.push_back(e); });
  for (std::uint64_t e : got) EXPECT_GT(e, cut);
  // Everything after the cut is still found.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t e : all) {
    if (e > cut) expected.push_back(e);
  }
  EXPECT_EQ(got, expected);
}

// --- Fixed-size chunking ---

TEST(FixedChunking, ExactMultiple) {
  const auto chunks = chunk_fixed(std::uint64_t{100}, std::uint64_t{25});
  ASSERT_EQ(chunks.size(), 4u);
  for (const auto& c : chunks) EXPECT_EQ(c.size, 25u);
}

TEST(FixedChunking, Remainder) {
  const auto chunks = chunk_fixed(std::uint64_t{100}, std::uint64_t{30});
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks.back().size, 10u);
}

TEST(FixedChunking, RejectsZeroSize) {
  EXPECT_THROW(chunk_fixed(std::uint64_t{10}, std::uint64_t{0}),
               std::invalid_argument);
}

TEST(FixedChunking, InsertionShiftsAllLaterChunks) {
  // The failure mode content-defined chunking fixes: one inserted byte
  // changes every chunk after the insertion point.
  auto data = random_bytes(64 * 1024, 30);
  ByteVec edited(data);
  edited.insert(edited.begin() + 1000, std::uint8_t{0x77});
  const auto a = chunk_fixed(as_bytes(data), 4096);
  const auto b = chunk_fixed(as_bytes(edited), 4096);
  int identical_content = 0;
  for (std::size_t i = 1; i < std::min(a.size(), b.size()); ++i) {
    const auto sa = ByteSpan(data).subspan(a[i].offset, a[i].size);
    const auto sb = ByteSpan(edited).subspan(b[i].offset, b[i].size);
    identical_content += std::equal(sa.begin(), sa.end(), sb.begin(), sb.end());
  }
  EXPECT_EQ(identical_content, 0);
}

// --- SampleByte ---

TEST(SampleByte, BoundariesCoverStream) {
  SampleByteChunker sb(256, 16, 99);
  const auto data = random_bytes(64 * 1024, 31);
  const auto chunks = sb.chunk(as_bytes(data));
  std::uint64_t pos = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, pos);
    pos = c.end();
  }
  EXPECT_EQ(pos, data.size());
}

TEST(SampleByte, RespectsSkip) {
  SampleByteChunker sb(256, 16, 99);
  const auto data = random_bytes(64 * 1024, 32);
  const auto bounds = sb.boundaries(as_bytes(data));
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    EXPECT_GT(bounds[i] - bounds[i - 1], sb.skip()) << "at " << i;
  }
}

TEST(SampleByte, RejectsBadArguments) {
  EXPECT_THROW(SampleByteChunker(1, 16, 1), std::invalid_argument);
  EXPECT_THROW(SampleByteChunker(256, 0, 1), std::invalid_argument);
  EXPECT_THROW(SampleByteChunker(256, 257, 1), std::invalid_argument);
}

TEST(SampleByte, EmptyInput) {
  SampleByteChunker sb(256, 16, 99);
  EXPECT_TRUE(sb.chunk({}).empty());
}

// --- Allocators ---

TEST(ArenaAllocator, AllocationsDoNotOverlap) {
  ArenaAllocator arena(1024);
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(arena.allocate(100));
  std::sort(ptrs.begin(), ptrs.end());
  for (std::size_t i = 1; i < ptrs.size(); ++i) {
    EXPECT_GE(static_cast<char*>(ptrs[i]) - static_cast<char*>(ptrs[i - 1]),
              100);
  }
}

TEST(ArenaAllocator, OversizedAllocation) {
  ArenaAllocator arena(128);
  void* p = arena.allocate(4096);
  EXPECT_NE(p, nullptr);
}

TEST(ArenaAllocator, ResetReusesSlabs) {
  ArenaAllocator arena(1024);
  for (int i = 0; i < 50; ++i) arena.allocate(100);
  const auto slabs = arena.slabs_allocated();
  arena.reset();
  for (int i = 0; i < 50; ++i) arena.allocate(100);
  EXPECT_EQ(arena.slabs_allocated(), slabs);
}

TEST(ArenaAllocator, RejectsZero) {
  ArenaAllocator arena;
  EXPECT_THROW(arena.allocate(0), std::invalid_argument);
  EXPECT_THROW(ArenaAllocator(0), std::invalid_argument);
}

TEST(LockedHeapAllocator, ConcurrentAllocationsAreDistinct) {
  LockedHeapAllocator heap;
  std::vector<std::thread> threads;
  std::array<std::vector<void*>, 4> ptrs;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&heap, &ptrs, t] {
      for (int i = 0; i < 200; ++i) {
        ptrs[static_cast<std::size_t>(t)].push_back(heap.allocate(64));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<void*> all;
  for (const auto& v : ptrs) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 800u);
}

// --- Parallel chunker: equivalence with serial, across thread counts ---

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, AllocMode>> {};

TEST_P(ParallelEquivalence, MatchesSerial) {
  const auto [threads, mode] = GetParam();
  const auto config = small_config();
  const RabinTables tables(config.window);
  const auto data = random_bytes(512 * 1024, 40 + threads);
  const auto serial = chunk_serial(tables, config, as_bytes(data));
  ParallelChunker parallel(tables, config, threads, mode);
  EXPECT_EQ(parallel.chunk(as_bytes(data)), serial);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndAllocators, ParallelEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 16),
                       ::testing::Values(AllocMode::kThreadArena,
                                         AllocMode::kSharedLockedHeap)));

TEST(ParallelChunker, MatchesSerialWithMinMax) {
  ChunkerConfig config = small_config();
  config.min_size = 128;
  config.max_size = 1024;
  const RabinTables tables(config.window);
  const auto data = random_bytes(256 * 1024, 41);
  const auto serial = chunk_serial(tables, config, as_bytes(data));
  ParallelChunker parallel(tables, config, 7);
  EXPECT_EQ(parallel.chunk(as_bytes(data)), serial);
}

TEST(ParallelChunker, TinyInputs) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  ParallelChunker parallel(tables, config, 8);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{15},
                        std::size_t{16}, std::size_t{17}, std::size_t{100}}) {
    const auto data = random_bytes(n, 50 + n);
    EXPECT_EQ(parallel.chunk(as_bytes(data)),
              chunk_serial(tables, config, as_bytes(data)))
        << "size " << n;
  }
}

TEST(ParallelChunker, WindowMismatchThrows) {
  const RabinTables tables(16);
  ChunkerConfig config = small_config();
  config.window = 32;
  EXPECT_THROW(ParallelChunker(tables, config, 2), std::invalid_argument);
}

TEST(ParallelChunker, StatsPopulated) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  ParallelChunker parallel(tables, config, 4);
  const auto data = random_bytes(128 * 1024, 42);
  const auto chunks = parallel.chunk(as_bytes(data));
  EXPECT_EQ(parallel.stats().bytes_scanned, data.size());
  EXPECT_GE(parallel.stats().raw_boundaries + 1, chunks.size());
  EXPECT_GT(parallel.stats().scan_seconds, 0.0);
}

// Dedup-efficiency comparison: CDC rediscovers shifted content, fixed-size
// does not, SampleByte sits in between for small chunks.
TEST(ChunkerComparison, CdcSurvivesInsertionFixedDoesNot) {
  const auto config = small_config();
  const RabinTables tables(config.window);
  auto data = random_bytes(512 * 1024, 43);
  ByteVec edited(data);
  edited.insert(edited.begin() + 100000, std::uint8_t{0xee});

  auto content_hashes = [&](const std::vector<Chunk>& chunks, ByteSpan src) {
    std::set<std::uint64_t> hashes;
    for (const auto& c : chunks) {
      hashes.insert(tables.fingerprint(src.subspan(c.offset, c.size)));
    }
    return hashes;
  };

  const auto cdc_a = content_hashes(chunk_serial(tables, config, as_bytes(data)),
                                    as_bytes(data));
  const auto cdc_b = content_hashes(
      chunk_serial(tables, config, as_bytes(edited)), as_bytes(edited));
  std::size_t cdc_common = 0;
  for (auto h : cdc_b) cdc_common += cdc_a.contains(h);

  const auto fx_a =
      content_hashes(chunk_fixed(as_bytes(data), 256), as_bytes(data));
  const auto fx_b =
      content_hashes(chunk_fixed(as_bytes(edited), 256), as_bytes(edited));
  std::size_t fx_common = 0;
  for (auto h : fx_b) fx_common += fx_a.contains(h);

  // CDC should retain the overwhelming majority of chunks; fixed-size only
  // the prefix before the insertion.
  EXPECT_GT(static_cast<double>(cdc_common) / static_cast<double>(cdc_b.size()),
            0.95);
  EXPECT_LT(static_cast<double>(fx_common) / static_cast<double>(fx_b.size()),
            0.35);
}

// --- Cross-backend equivalence suite ---
//
// StreamScanner (scan_raw) is the reference oracle; every backend — the
// scan_buffer fast path, chunk_serial/find_raw_boundaries, the parallel
// chunker under both allocation modes and several thread counts, and both
// GPU kernel flavors — must reproduce its raw boundary stream bit for bit
// across window sizes, masks, and edge-case input lengths.

std::vector<std::uint64_t> oracle_raw(const RabinTables& tables,
                                      const ChunkerConfig& config,
                                      ByteSpan data) {
  std::vector<std::uint64_t> ends;
  scan_raw(tables, config, data, /*warmup=*/0, /*base=*/0,
           [&](std::uint64_t end, std::uint64_t) { ends.push_back(end); });
  return ends;
}

std::vector<std::uint64_t> buffer_raw(const RabinTables& tables,
                                      const ChunkerConfig& config,
                                      ByteSpan data) {
  std::vector<std::uint64_t> ends;
  scan_buffer(tables, config, data, /*warmup=*/0, /*base=*/0,
              [&](std::uint64_t end, std::uint64_t) { ends.push_back(end); });
  return ends;
}

struct EquivCase {
  std::size_t window;
  unsigned mask_bits;
  std::uint64_t marker;
};

class CrossBackendEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(CrossBackendEquivalence, RawBoundariesBitIdentical) {
  const auto [window, mask_bits, marker] = GetParam();
  ChunkerConfig config;
  config.window = window;
  config.mask_bits = mask_bits;
  config.marker = marker;
  const RabinTables tables(window);

  // Edge cases: empty, sub-window, exact window, exact window multiples,
  // a +1 straggler, and sizes large enough for many regions. 600000 exceeds
  // the two-lane threshold of the buffer fast path.
  const std::size_t sizes[] = {0,          1,          window - 1, window,
                               2 * window, 8 * window, 8 * window + 1,
                               65536,      600000};
  std::uint64_t seed = 1000 + window;
  for (const std::size_t size : sizes) {
    const auto data = random_bytes(size, seed++);
    const ByteSpan span = as_bytes(data);
    const auto oracle = oracle_raw(tables, config, span);

    EXPECT_EQ(buffer_raw(tables, config, span), oracle)
        << "scan_buffer, size " << size;
    EXPECT_EQ(find_raw_boundaries(tables, config, span), oracle)
        << "find_raw_boundaries, size " << size;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const auto mode :
           {AllocMode::kSharedLockedHeap, AllocMode::kThreadArena}) {
        ParallelChunker chunker(tables, config, threads, mode);
        EXPECT_EQ(chunker.raw_boundaries(span), oracle)
            << "parallel, size " << size << ", threads " << threads
            << ", arena " << (mode == AllocMode::kThreadArena);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndMasks, CrossBackendEquivalence,
    ::testing::Values(EquivCase{16, 8, 0x42}, EquivCase{16, 11, 0x2a5},
                      EquivCase{48, 8, 0x42}, EquivCase{48, 11, 0x2a5},
                      EquivCase{64, 8, 0x42}, EquivCase{64, 11, 0x2a5}));

TEST_P(CrossBackendEquivalence, GpuKernelsBitIdentical) {
  const auto [window, mask_bits, marker] = GetParam();
  ChunkerConfig config;
  config.window = window;
  config.mask_bits = mask_bits;
  config.marker = marker;
  const RabinTables tables(window);

  gpu::Device device(gpu::DeviceSpec{}, 2);
  std::uint64_t seed = 2000 + window;
  for (const std::size_t size :
       {window, 8 * window + 3, std::size_t{100000}}) {
    const auto data = random_bytes(size, seed++);
    const ByteSpan span = as_bytes(data);
    const auto oracle = oracle_raw(tables, config, span);
    auto buf = device.alloc(data.size());
    device.memcpy_h2d(buf, 0, span, gpu::HostMemKind::kPinned);
    for (const bool coalesced : {false, true}) {
      core::KernelParams params;
      params.blocks = 4;
      params.threads_per_block = 16;
      params.coalesced = coalesced;
      const auto result = core::chunk_on_gpu(device, buf, data.size(), 0, 0,
                                             tables, config, params);
      EXPECT_EQ(result.boundaries, oracle)
          << "gpu coalesced=" << coalesced << ", size " << size;
    }
    // Tiny per-thread stage slice (shared/tpb below halo + 64): the
    // coalesced kernel's tile-overflow fallback must still be exact.
    core::KernelParams tiny_stage;
    tiny_stage.blocks = 1;
    tiny_stage.threads_per_block = 768;
    tiny_stage.coalesced = true;
    const auto overflow = core::chunk_on_gpu(device, buf, data.size(), 0, 0,
                                             tables, config, tiny_stage);
    EXPECT_EQ(overflow.boundaries, oracle) << "tiny stage, size " << size;
  }
}

TEST_P(CrossBackendEquivalence, ChunkListsBitIdentical) {
  const auto [window, mask_bits, marker] = GetParam();
  ChunkerConfig config;
  config.window = window;
  config.mask_bits = mask_bits;
  config.marker = marker;
  config.min_size = std::uint64_t{1} << (mask_bits - 1);
  config.max_size = std::uint64_t{1} << (mask_bits + 2);
  const RabinTables tables(window);
  const auto data = random_bytes(300000, 77 + window);
  const ByteSpan span = as_bytes(data);

  const auto expected = chunk_serial(tables, config, span);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const auto mode :
         {AllocMode::kSharedLockedHeap, AllocMode::kThreadArena}) {
      ParallelChunker chunker(tables, config, threads, mode);
      EXPECT_EQ(chunker.chunk(span), expected)
          << "threads " << threads << ", arena "
          << (mode == AllocMode::kThreadArena);
    }
  }
}

TEST(ScanBuffer, WarmupAndBaseMatchStreamScanner) {
  // The warmup/base contract used by parallel regions and GPU tiles: a scan
  // over [begin - warm, end) with `warm` warmup bytes must emit exactly the
  // oracle boundaries that fall in (begin, end].
  ChunkerConfig config;
  config.window = 48;
  config.mask_bits = 8;
  config.marker = 0x42;
  const RabinTables tables(config.window);
  const auto data = random_bytes(50000, 91);
  const ByteSpan span = as_bytes(data);
  const auto oracle = oracle_raw(tables, config, span);
  for (const std::size_t begin : {std::size_t{0}, std::size_t{17},
                                  std::size_t{1000}, std::size_t{49999}}) {
    const std::size_t end = std::min<std::size_t>(begin + 20000, span.size());
    const std::size_t warm = std::min(begin, config.window - 1);
    std::vector<std::uint64_t> got;
    scan_buffer(tables, config, span.subspan(begin - warm, end - begin + warm),
                warm, begin - warm,
                [&](std::uint64_t e, std::uint64_t) { got.push_back(e); });
    std::vector<std::uint64_t> expected;
    for (auto e : oracle) {
      if (e > begin && e <= end) expected.push_back(e);
    }
    EXPECT_EQ(got, expected) << "begin " << begin;
  }
}

TEST(ScanBuffer, TwoLaneWarmupMatchesStreamScanner) {
  // Spans past the two-lane threshold with nonzero warmup: the production
  // shape of every parallel region past the first on multi-megabyte inputs
  // (region >= 256 KiB, warm = w-1). Exercises scan_two_lanes' prologue
  // guards and warmup skip loops.
  ChunkerConfig config;
  config.window = 48;
  config.mask_bits = 9;
  config.marker = 0x5a;
  const RabinTables tables(config.window);
  const auto data = random_bytes(900000, 95);
  const ByteSpan span = as_bytes(data);
  const auto oracle = oracle_raw(tables, config, span);
  for (const std::size_t begin :
       {std::size_t{0}, std::size_t{13}, std::size_t{300000}}) {
    const std::size_t end = std::min<std::size_t>(begin + 550000, span.size());
    const std::size_t warm = std::min(begin, config.window - 1);
    std::vector<std::uint64_t> got;
    scan_buffer(tables, config, span.subspan(begin - warm, end - begin + warm),
                warm, begin - warm,
                [&](std::uint64_t e, std::uint64_t) { got.push_back(e); });
    std::vector<std::uint64_t> expected;
    std::vector<std::uint64_t> reference;
    scan_raw(tables, config, span.subspan(begin - warm, end - begin + warm),
             warm, begin - warm,
             [&](std::uint64_t e, std::uint64_t) { reference.push_back(e); });
    for (auto e : oracle) {
      if (e > begin && e <= end) expected.push_back(e);
    }
    EXPECT_EQ(got, expected) << "begin " << begin;
    EXPECT_EQ(got, reference) << "begin " << begin;
  }
}

TEST(ScanBuffer, ParallelRegionsAboveTwoLaneThreshold) {
  // Multi-thread run where every region runs two-lane with warm = w-1.
  ChunkerConfig config;
  config.window = 48;
  config.mask_bits = 12;
  config.marker = 0x123;
  const RabinTables tables(config.window);
  const auto data = random_bytes(1500000, 96);
  const ByteSpan span = as_bytes(data);
  const auto oracle = oracle_raw(tables, config, span);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ParallelChunker chunker(tables, config, threads, AllocMode::kThreadArena);
    EXPECT_EQ(chunker.raw_boundaries(span), oracle) << "threads " << threads;
  }
}

TEST(ScanBuffer, EmitsWindowFingerprints) {
  // The fp handed to emit must be the true fingerprint of the window ending
  // at the boundary (the hop-table decomposition must not change it).
  ChunkerConfig config;
  config.window = 32;
  config.mask_bits = 7;
  config.marker = 0x15;
  const RabinTables tables(config.window);
  const auto data = random_bytes(100000, 92);
  std::size_t checked = 0;
  scan_buffer(tables, config, as_bytes(data), 0, 0,
              [&](std::uint64_t end, std::uint64_t fp) {
                const auto window = ByteSpan(as_bytes(data))
                                        .subspan(end - config.window,
                                                 config.window);
                EXPECT_EQ(fp, tables.fingerprint(window)) << "end " << end;
                ++checked;
              });
  EXPECT_GT(checked, 100u);
}

TEST(ScanBuffer, RejectsOversizedTableWindow) {
  const RabinTables tables(kMaxWindow + 1);
  ChunkerConfig config;  // defaults are valid
  const auto data = random_bytes(1024, 93);
  EXPECT_THROW(scan_buffer(tables, config, as_bytes(data), 0, 0,
                           [](std::uint64_t, std::uint64_t) {}),
               std::invalid_argument);
}

TEST(StreamScanner, RejectsOversizedTableWindow) {
  // The ring buffer is a fixed stack array of kMaxWindow bytes; constructing
  // with larger tables used to silently corrupt the stack.
  const RabinTables tables(kMaxWindow + 1);
  ChunkerConfig config;
  EXPECT_THROW(StreamScanner(tables, config), std::invalid_argument);
}

// --- Scan paths against each other: window sum, scalar lanes, StreamScanner

TEST(ScanDispatch, ReportsPath) {
  const std::string path = scan_buffer_path();
  std::cout << "[ scan path ] scan_buffer dispatches to: " << path << "\n";
  EXPECT_EQ(path.rfind("window-sum", 0) == 0, detail::window_sum_supported());
}

using Hit = std::pair<std::uint64_t, std::uint64_t>;  // (end offset, fp)

struct ScanPathCase {
  unsigned mask_bits;
  std::size_t window;
};

// Random bytes with copies of the first w-byte block planted every 97 + w
// bytes (so hits land at every phase of a 64-position vector), and a marker
// that block's window matches, so even a 48-bit mask has hits.
std::pair<ByteVec, ChunkerConfig> planted_case(const RabinTables& tables,
                                               unsigned mask_bits) {
  const std::size_t w = tables.window();
  ByteVec data = random_bytes(4000, 500 + w + mask_bits);
  const ByteVec block(data.begin(), data.begin() + static_cast<long>(w));
  for (std::size_t at = w + 5; at + w <= data.size(); at += 97 + w) {
    std::copy(block.begin(), block.end(),
              data.begin() + static_cast<long>(at));
  }
  ChunkerConfig config;
  config.window = w;
  config.mask_bits = mask_bits;
  config.marker = tables.fingerprint(as_bytes(block)) & config.boundary_mask();
  return {std::move(data), config};
}

// Every span shape the scanners must agree on, as (pointer offset into the
// data, length, warmup): spans shorter than w, a first tested position equal
// to the span end, and 0, 1, 63, 64 and 65 tested positions past whole
// stretches, from unaligned pointers, with and without warmup.
template <typename Fn>
void for_each_span(std::size_t w, Fn&& fn) {
  for (const std::size_t off : {0u, 1u, 3u, 61u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, w - 1}) {
      fn(off, n, std::size_t{0});
    }
    for (const std::size_t warmup : {std::size_t{0}, std::size_t{5}, w + 37}) {
      const std::size_t first = std::max(w - 1, warmup);
      for (const std::size_t stretches : {0u, 3u}) {
        for (const std::size_t tail : {0u, 1u, 63u, 64u, 65u}) {
          fn(off, first + 256 * stretches + tail, warmup);
        }
      }
      fn(off, first + 1000, warmup);
    }
  }
}

template <typename Scan>
std::vector<Hit> collect(Scan&& scan) {
  std::vector<Hit> hits;
  scan([&](std::uint64_t end, std::uint64_t fp) {
    hits.emplace_back(end, fp);
  });
  return hits;
}

class ScanPaths : public ::testing::TestWithParam<ScanPathCase> {};

TEST_P(ScanPaths, ScalarLanesMatchStreamScanner) {
  const RabinTables tables(GetParam().window);
  const auto [data, config] = planted_case(tables, GetParam().mask_bits);
  const std::size_t w = tables.window();
  const std::uint64_t mask = config.boundary_mask();
  std::size_t total = 0;
  for_each_span(w, [&](std::size_t off, std::size_t n, std::size_t warmup) {
    const std::uint8_t* p = data.data() + off;
    const ByteSpan span{p, n};
    const std::uint64_t base = 1000 + off;
    const auto oracle = collect([&](auto&& emit) {
      scan_raw(tables, config, span, warmup, base, emit);
    });
    total += oracle.size();
    const auto lane = collect([&](auto&& emit) {
      detail::scan_lane(tables, mask, config.marker, p, 0, n, warmup, base,
                        emit);
    });
    EXPECT_EQ(lane, oracle) << "off " << off << " n " << n << " warmup "
                            << warmup;
    if (n >= 2 * w + 2) {  // both lanes hold at least one full window
      const auto two = collect([&](auto&& emit) {
        detail::scan_two_lanes(tables, mask, config.marker, p, n, warmup,
                               base, emit);
      });
      EXPECT_EQ(two, oracle) << "off " << off << " n " << n << " warmup "
                             << warmup;
    }
    const auto buffer = collect([&](auto&& emit) {
      scan_buffer(tables, config, span, warmup, base, emit);
    });
    EXPECT_EQ(buffer, oracle) << "off " << off << " n " << n << " warmup "
                              << warmup;
  });
  EXPECT_GT(total, 0u);
}

TEST_P(ScanPaths, WindowSumMatchesStreamScanner) {
  if (!detail::window_sum_supported()) {
    GTEST_SKIP() << "CPU lacks AVX512F/AVX512BW/GFNI";
  }
  const RabinTables tables(GetParam().window);
  const auto [data, config] = planted_case(tables, GetParam().mask_bits);
  const std::uint64_t mask = config.boundary_mask();
  std::size_t total = 0;
  for_each_span(tables.window(), [&](std::size_t off, std::size_t n,
                                     std::size_t warmup) {
    const std::uint8_t* p = data.data() + off;
    const std::uint64_t base = 1000 + off;
    const auto oracle = collect([&](auto&& emit) {
      scan_raw(tables, config, ByteSpan{p, n}, warmup, base, emit);
    });
    total += oracle.size();
    const auto vec = collect([&](auto&& emit) {
      detail::scan_window_sum(tables, mask, config.marker, p, n, warmup, base,
                              emit);
    });
    EXPECT_EQ(vec, oracle) << "off " << off << " n " << n << " warmup "
                           << warmup;
  });
  EXPECT_GT(total, 0u);
}

std::vector<ScanPathCase> scan_path_grid() {
  std::vector<ScanPathCase> cases;
  for (const unsigned bits : {1u, 8u, 9u, 13u, 16u, 17u, 48u}) {
    for (const std::size_t w : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}, std::size_t{9},
                                std::size_t{48}, kMaxWindow}) {
      cases.push_back({bits, w});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    MaskAndWindow, ScanPaths, ::testing::ValuesIn(scan_path_grid()),
    [](const ::testing::TestParamInfo<ScanPathCase>& info) {
      return "mask" + std::to_string(info.param.mask_bits) + "_w" +
             std::to_string(info.param.window);
    });

}  // namespace
}  // namespace shredder::chunking
