// Tests for the Shredder core: sources, GPU kernels (functional equivalence
// with the serial reference), and the end-to-end pipeline in all modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <tuple>

#include "chunking/cdc.h"
#include "core/kernels.h"
#include "core/pipeline.h"
#include "core/shredder.h"
#include "core/source.h"
#include "common/rng.h"
#include "dedup/digest.h"
#include "dedup/sha256.h"
#include "gpusim/dma.h"
#include "obs/registry.h"

namespace shredder::core {
namespace {

chunking::ChunkerConfig small_chunker() {
  chunking::ChunkerConfig c;
  c.window = 16;
  c.mask_bits = 8;
  c.marker = 0x42;
  return c;
}

ShredderConfig small_config() {
  ShredderConfig cfg;
  cfg.chunker = small_chunker();
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  return cfg;
}

// --- Sources ---

TEST(MemorySource, ReadsAll) {
  const auto data = random_bytes(10000, 1);
  MemorySource src(as_bytes(data), 2e9);
  ByteVec out(10000);
  std::size_t total = 0;
  while (total < out.size()) {
    const auto n = src.read({out.data() + total, 3000});
    if (n == 0) break;
    total += n;
  }
  EXPECT_EQ(total, data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(src.read({out.data(), 10}), 0u);
}

TEST(MemorySource, ReadSecondsMatchesBandwidth) {
  const auto data = random_bytes(100, 1);
  MemorySource src(as_bytes(data), 2e9);
  EXPECT_DOUBLE_EQ(src.read_seconds(2e9), 1.0);
}

TEST(SyntheticSource, DeterministicAcrossGranularities) {
  SyntheticSource a(10000, 7, 2e9);
  SyntheticSource b(10000, 7, 2e9);
  ByteVec va(10000), vb(10000);
  // Read a in one go, b in ragged pieces.
  EXPECT_EQ(a.read({va.data(), va.size()}), 10000u);
  std::size_t pos = 0;
  SplitMix64 rng(3);
  while (pos < vb.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.next_below(977),
                                                vb.size() - pos);
    EXPECT_EQ(b.read({vb.data() + pos, n}), n);
    pos += n;
  }
  EXPECT_EQ(va, vb);
}

TEST(FileSource, ReadsRealFile) {
  const auto data = random_bytes(50000, 2);
  const std::string path = ::testing::TempDir() + "/shredder_filesource_test";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
  }
  FileSource src(path, 2e9);
  EXPECT_EQ(src.total_bytes(), data.size());
  ByteVec out(data.size());
  std::size_t total = 0;
  while (total < out.size()) {
    const auto n = src.read({out.data() + total, 7777});
    if (n == 0) break;
    total += n;
  }
  EXPECT_EQ(out, data);
  std::remove(path.c_str());
}

TEST(FileSource, MissingFileThrows) {
  EXPECT_THROW(FileSource("/no/such/file/exists", 2e9), std::runtime_error);
}

TEST(FileSource, DirectoryThrows) {
  // fopen succeeds on a directory and its reads return 0, which used to
  // chunk as an empty stream.
  EXPECT_THROW(FileSource(::testing::TempDir(), 2e9), std::runtime_error);
}

TEST(FileSource, EndToEndThroughShredder) {
  const auto data = random_bytes(150000, 3);
  const std::string path = ::testing::TempDir() + "/shredder_filesource_e2e";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
  }
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  FileSource src(path, cfg.host.reader_bw);
  const auto result = shredder.run(src);
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
  std::remove(path.c_str());
}

TEST(SyntheticSource, DifferentSeedsDiffer) {
  SyntheticSource a(1000, 1, 2e9), b(1000, 2, 2e9);
  ByteVec va(1000), vb(1000);
  a.read({va.data(), va.size()});
  b.read({vb.data(), vb.size()});
  EXPECT_NE(va, vb);
}

// --- GPU kernels: functional equivalence with serial scan ---

class KernelEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(KernelEquivalence, MatchesSerialRawBoundaries) {
  const bool coalesced = GetParam();
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(300000, 9);

  gpu::Device device(gpu::DeviceSpec{}, 4);
  auto buf = device.alloc(data.size());
  device.memcpy_h2d(buf, 0, as_bytes(data), gpu::HostMemKind::kPinned);

  KernelParams params;
  params.blocks = 12;
  params.threads_per_block = 32;
  params.coalesced = coalesced;
  const auto result = chunk_on_gpu(device, buf, data.size(), 0, 0, tables,
                                   config, params);
  EXPECT_EQ(result.boundaries,
            chunking::find_raw_boundaries(tables, config, as_bytes(data)));
  EXPECT_EQ(result.stats.bytes_processed >= data.size(), true);
}

INSTANTIATE_TEST_SUITE_P(BasicAndCoalesced, KernelEquivalence,
                         ::testing::Values(false, true));

TEST(Kernels, CarryContextSuppressesAndWarms) {
  // Chunking buffer 2 with the last w-1 bytes of buffer 1 as carry must
  // reproduce exactly the serial boundaries of the concatenation that fall
  // in buffer 2.
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(200000, 10);
  const std::size_t cut = 100000;
  const auto whole = chunking::find_raw_boundaries(tables, config, as_bytes(data));

  gpu::Device device(gpu::DeviceSpec{}, 4);
  const std::size_t carry = config.window - 1;
  // Buffer 2 = carry + second half.
  ByteVec buf2(data.begin() + static_cast<std::ptrdiff_t>(cut - carry),
               data.end());
  auto dev2 = device.alloc(buf2.size());
  device.memcpy_h2d(dev2, 0, as_bytes(buf2), gpu::HostMemKind::kPinned);
  KernelParams params;
  params.blocks = 4;
  params.threads_per_block = 16;
  const auto result =
      chunk_on_gpu(device, dev2, buf2.size(), carry,
                   /*base_offset=*/cut - carry, tables, config, params);
  std::vector<std::uint64_t> expected;
  for (auto b : whole) {
    if (b > cut) expected.push_back(b);
  }
  EXPECT_EQ(result.boundaries, expected);
}

TEST(Kernels, CoalescedReportsSharedStagingAndFewerConflicts) {
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(1 << 20, 11);
  gpu::Device device(gpu::DeviceSpec{}, 4);
  auto buf = device.alloc(data.size());
  device.memcpy_h2d(buf, 0, as_bytes(data), gpu::HostMemKind::kPinned);

  KernelParams basic;
  basic.blocks = 14;
  basic.threads_per_block = 64;
  basic.coalesced = false;
  KernelParams coal = basic;
  coal.coalesced = true;

  const auto rb = chunk_on_gpu(device, buf, data.size(), 0, 0, tables, config,
                               basic);
  const auto rc = chunk_on_gpu(device, buf, data.size(), 0, 0, tables, config,
                               coal);
  EXPECT_EQ(rb.boundaries, rc.boundaries);
  EXPECT_EQ(rb.stats.shared_staged_bytes, 0u);
  EXPECT_GT(rc.stats.shared_staged_bytes, 0u);
  EXPECT_GT(rb.stats.row_switch_fraction, rc.stats.row_switch_fraction);
  // Fewer, larger transactions when coalesced.
  EXPECT_GT(rb.stats.transactions, rc.stats.transactions * 4);
  // And the virtual kernel time improves substantially (Fig 11).
  EXPECT_GT(rb.stats.virtual_seconds, rc.stats.virtual_seconds * 3);
}

TEST(Kernels, ValidatesArguments) {
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  auto buf = device.alloc(1000);
  KernelParams params;
  EXPECT_THROW(chunk_on_gpu(device, buf, 2000, 0, 0, tables, config, params),
               std::invalid_argument);
  EXPECT_THROW(chunk_on_gpu(device, buf, 500, 600, 0, tables, config, params),
               std::invalid_argument);
}

// --- Shredder end-to-end ---

class ShredderModes : public ::testing::TestWithParam<GpuMode> {};

TEST_P(ShredderModes, MatchesSerialChunking) {
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  Shredder shredder(cfg);
  const auto data = random_bytes(500000, 13);
  const auto result = shredder.run(as_bytes(data));
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  EXPECT_EQ(result.chunks, expected);
  EXPECT_EQ(result.total_bytes, data.size());
  EXPECT_GT(result.n_buffers, 1u);
  EXPECT_GT(result.virtual_seconds, 0.0);
  EXPECT_GT(result.virtual_throughput_bps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ShredderModes,
                         ::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                           GpuMode::kStreamsCoalesced));

TEST(Shredder, MinMaxEndToEnd) {
  ShredderConfig cfg = small_config();
  cfg.chunker.min_size = 128;
  cfg.chunker.max_size = 1024;
  Shredder shredder(cfg);
  const auto data = random_bytes(300000, 14);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
  for (std::size_t i = 0; i + 1 < result.chunks.size(); ++i) {
    EXPECT_GE(result.chunks[i].size, 128u);
    EXPECT_LE(result.chunks[i].size, 1024u);
  }
}

TEST(Shredder, UpcallsStreamInOrder) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 15);
  std::vector<chunking::Chunk> streamed;
  const auto result = shredder.run(
      as_bytes(data), [&](const chunking::Chunk& c) { streamed.push_back(c); });
  EXPECT_EQ(streamed, result.chunks);
}

TEST(Shredder, BoundarySpanningBuffersIsFound) {
  // Force a tiny buffer so chunks regularly straddle buffer seams.
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 4096;
  Shredder shredder(cfg);
  const auto data = random_bytes(100000, 16);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

TEST(Shredder, StreamsModesFasterThanBasicVirtually) {
  const auto data = random_bytes(2 << 20, 17);
  auto run_mode = [&](GpuMode mode) {
    ShredderConfig cfg = small_config();
    cfg.buffer_bytes = 256 * 1024;
    cfg.mode = mode;
    Shredder shredder(cfg);
    return shredder.run(as_bytes(data)).virtual_throughput_bps;
  };
  const double basic = run_mode(GpuMode::kBasic);
  const double streams = run_mode(GpuMode::kStreams);
  const double full = run_mode(GpuMode::kStreamsCoalesced);
  EXPECT_GT(streams, basic);
  EXPECT_GT(full, streams);
}

TEST(Shredder, ReportsStageBreakdown) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto data = random_bytes(400000, 18);
  const auto result = shredder.run(as_bytes(data));
  const auto& s = result.mean_stage_seconds;
  EXPECT_GT(s.reader, 0.0);
  EXPECT_GT(s.transfer, 0.0);
  EXPECT_GT(s.kernel, 0.0);
  EXPECT_GT(s.store, 0.0);
  EXPECT_NEAR(result.serialized_seconds,
              s.sum() * static_cast<double>(result.n_buffers),
              result.serialized_seconds * 0.2);
  EXPECT_LE(result.virtual_seconds, result.serialized_seconds + 1e-9);
}

TEST(Shredder, EmptyInputYieldsNoChunks) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto result = shredder.run(ByteSpan{});
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_EQ(result.total_bytes, 0u);
}

TEST(Shredder, ConfigValidation) {
  ShredderConfig cfg = small_config();
  // A buffer must hold more than the w-1 carried context bytes.
  const std::size_t w = cfg.chunker.window;
  for (const std::size_t bad : {std::size_t{0}, std::size_t{4}, w - 1, w,
                                2 * w - 1}) {
    cfg.buffer_bytes = bad;
    EXPECT_THROW(Shredder{cfg}, std::invalid_argument) << bad;
  }
  cfg = small_config();
  cfg.ring_slots = 0;
  EXPECT_THROW(Shredder{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.kernel.blocks = 0;
  EXPECT_THROW(Shredder{cfg}, std::invalid_argument);
}

// --- Persistent engine: reuse, recovery, carry seams ---

// Collects every delivered chunk's bytes and checks each batch's payload
// window against the stream it was cut from.
class StreamCheckSink final : public ChunkSink {
 public:
  explicit StreamCheckSink(ByteSpan stream) : stream_(stream) {}

  void on_batch(const ChunkBatchView& batch) override {
    if (batch.has_payload()) {
      windows.emplace_back(batch.payload_base, batch.payload.size());
      const auto base = static_cast<std::size_t>(batch.payload_base);
      ASSERT_LE(base + batch.payload.size(), stream_.size());
      EXPECT_TRUE(std::equal(batch.payload.begin(), batch.payload.end(),
                             stream_.subspan(base).begin()))
          << "payload window at " << base;
    }
    for (std::size_t i = 0; i < batch.chunks.size(); ++i) {
      const ByteSpan bytes = batch.chunk_bytes(i);
      reassembled.insert(reassembled.end(), bytes.begin(), bytes.end());
    }
    if (batch.eos) ++eos_batches;
  }
  bool wants_payload() const noexcept override { return true; }

  ByteVec reassembled;
  std::size_t eos_batches = 0;
  // (payload_base, size) of every delivered payload window.
  std::vector<std::pair<std::uint64_t, std::size_t>> windows;

 private:
  ByteSpan stream_;
};

ByteVec synthetic_bytes(std::uint64_t total, std::uint64_t seed) {
  SyntheticSource src(total, seed, 2e9);
  ByteVec out(total);
  EXPECT_EQ(src.read({out.data(), out.size()}), total);
  return out;
}

void expect_digests_match(const ShredderResult& r, ByteSpan data) {
  ASSERT_EQ(r.digests.size(), r.chunks.size());
  for (std::size_t i = 0; i < r.chunks.size(); ++i) {
    const auto& c = r.chunks[i];
    EXPECT_EQ(r.digests[i],
              dedup::Sha256::hash(data.subspan(
                  static_cast<std::size_t>(c.offset),
                  static_cast<std::size_t>(c.size))))
        << "chunk " << i;
  }
}

TEST(Shredder, ReassemblesStreamAcrossOddBufferSeams) {
  // Every buffer is staged as the previous buffer's last w-1 bytes plus up
  // to buffer_bytes read in place; with an odd buffer size the seams land
  // everywhere relative to chunk boundaries and the stream tail.
  for (const GpuMode mode :
       {GpuMode::kBasic, GpuMode::kStreams, GpuMode::kStreamsCoalesced}) {
    ShredderConfig cfg = small_config();
    cfg.mode = mode;
    cfg.buffer_bytes = 8191;
    Shredder shredder(cfg);
    const std::uint64_t total = 100000;
    const ByteVec data = synthetic_bytes(total, 5);
    SyntheticSource src(total, 5, cfg.host.reader_bw);
    StreamCheckSink sink(as_bytes(data));
    const auto result = shredder.run(src, sink);
    EXPECT_EQ(result.chunks,
              chunking::chunk_serial(shredder.tables(), cfg.chunker,
                                     as_bytes(data)));
    EXPECT_EQ(sink.reassembled, data);
    EXPECT_EQ(sink.eos_batches, 1u);
    EXPECT_EQ(result.n_buffers, (total + 8190) / 8191);
    EXPECT_EQ(result.total_bytes, total);
    // Buffer k stages exactly the w-1 bytes before k*8191, then its payload.
    const std::size_t carry = cfg.chunker.window - 1;
    ASSERT_GE(sink.windows.size(), result.n_buffers - 1);
    for (const auto& [base, size] : sink.windows) {
      if (base == 0) continue;
      const std::uint64_t start = base + carry;
      EXPECT_EQ(start % 8191, 0u) << "window at " << base;
      EXPECT_EQ(size, carry + std::min<std::uint64_t>(8191, total - start));
    }
  }
}

TEST(Shredder, SmallestBufferGeometryChunksExactly) {
  // The smallest accepted buffer (2w, see ConfigValidation) still chunks
  // exactly.
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 2 * cfg.chunker.window;
  Shredder shredder(cfg);
  const ByteVec data = synthetic_bytes(5000, 6);
  SyntheticSource src(data.size(), 6, cfg.host.reader_bw);
  StreamCheckSink sink(as_bytes(data));
  const auto result = shredder.run(src, sink);
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
  EXPECT_EQ(sink.reassembled, data);
}

class ShredderReuse
    : public ::testing::TestWithParam<std::tuple<GpuMode, bool>> {};

TEST_P(ShredderReuse, BackToBackRunsStayExactWithoutReallocating) {
  const auto [mode, fingerprint] = GetParam();
  obs::Registry registry;
  ShredderConfig cfg = small_config();
  cfg.mode = mode;
  cfg.fingerprint_on_device = fingerprint;
  cfg.registry = &registry;
  Shredder shredder(cfg);
  const std::size_t w = cfg.chunker.window;
  const std::size_t b = cfg.buffer_bytes;
  std::uint64_t allocated_after_first = 0;
  std::size_t run = 0;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, w - 1, b,
                                 b + 1, b * 7 / 2}) {
    const ByteVec data = synthetic_bytes(size, 40 + size);
    const auto expected =
        chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
    // Alternate the in-memory and the streaming (lease-retaining) frontends.
    for (const bool streaming : {false, true}) {
      ShredderResult result;
      if (streaming) {
        MemorySource src(as_bytes(data), cfg.host.reader_bw);
        StreamCheckSink sink(as_bytes(data));
        result = shredder.run(src, sink);
        EXPECT_EQ(sink.reassembled, data) << "size " << size;
      } else {
        result = shredder.run(as_bytes(data));
      }
      EXPECT_EQ(result.chunks, expected) << "size " << size;
      EXPECT_EQ(result.total_bytes, size);
      if (fingerprint) expect_digests_match(result, as_bytes(data));
      EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 0.0)
          << "size " << size;
      if (run++ == 0) {
        allocated_after_first = shredder.device().allocated_bytes();
        EXPECT_GT(allocated_after_first, 0u);
      } else {
        EXPECT_EQ(shredder.device().allocated_bytes(), allocated_after_first)
            << "ring or twins reallocated at size " << size;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesByFingerprint, ShredderReuse,
    ::testing::Combine(::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                         GpuMode::kStreamsCoalesced),
                       ::testing::Bool()));

// Delivers bytes normally until `fail_after` bytes are out, then throws.
class FailingSource final : public DataSource {
 public:
  FailingSource(ByteSpan data, std::size_t fail_after)
      : inner_(data, 2e9), fail_after_(fail_after) {}

  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  std::size_t read(MutableByteSpan dst) override {
    if (served_ >= fail_after_) throw std::runtime_error("source failed");
    const std::size_t n = inner_.read(dst);
    served_ += n;
    return n;
  }
  double read_seconds(std::uint64_t bytes) const override {
    return inner_.read_seconds(bytes);
  }

 private:
  MemorySource inner_;
  std::size_t fail_after_;
  std::size_t served_ = 0;
};

// Throws from its second batch.
class FailingSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView&) override {
    if (++batches_ == 2) throw std::runtime_error("sink failed");
  }
  bool wants_payload() const noexcept override { return true; }

 private:
  std::size_t batches_ = 0;
};

class ShredderRecovery
    : public ::testing::TestWithParam<std::tuple<GpuMode, bool>> {};

TEST_P(ShredderRecovery, FailedRunRethrowsAndNextRunIsExact) {
  const auto [mode, fingerprint] = GetParam();
  obs::Registry registry;
  ShredderConfig cfg = small_config();
  cfg.mode = mode;
  cfg.fingerprint_on_device = fingerprint;
  cfg.registry = &registry;
  Shredder shredder(cfg);
  const ByteVec data = synthetic_bytes(5 * cfg.buffer_bytes + 123, 8);
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  const auto expect_exact_run = [&] {
    const auto result = shredder.run(as_bytes(data));
    EXPECT_EQ(result.chunks, expected);
    if (fingerprint) expect_digests_match(result, as_bytes(data));
    EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 0.0);
  };

  expect_exact_run();  // a healthy engine exists before the failures
  FailingSource source(as_bytes(data), 2 * cfg.buffer_bytes);
  EXPECT_THROW(shredder.run(source), std::runtime_error);
  expect_exact_run();

  MemorySource streaming(as_bytes(data), cfg.host.reader_bw);
  FailingSink sink;
  EXPECT_THROW(shredder.run(streaming, sink), std::runtime_error);
  expect_exact_run();
  FailingSink in_memory_sink;
  EXPECT_THROW(shredder.run(as_bytes(data), in_memory_sink),
               std::runtime_error);
  expect_exact_run();
}

INSTANTIATE_TEST_SUITE_P(
    ModesByFingerprint, ShredderRecovery,
    ::testing::Combine(::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                         GpuMode::kStreamsCoalesced),
                       ::testing::Bool()));

TEST(Shredder, ConcurrentRunsOnOneShredderAreSerialised) {
  ShredderConfig cfg = small_config();
  cfg.fingerprint_on_device = true;
  Shredder shredder(cfg);
  const ByteVec a = synthetic_bytes(3 * cfg.buffer_bytes + 17, 11);
  const ByteVec b = synthetic_bytes(2 * cfg.buffer_bytes + 5, 12);
  const auto expect_a =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(a));
  const auto expect_b =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(b));
  const auto worker = [&](const ByteVec& data,
                          const std::vector<chunking::Chunk>& expected) {
    for (int i = 0; i < 4; ++i) {
      const auto result = shredder.run(as_bytes(data));
      EXPECT_EQ(result.chunks, expected);
      expect_digests_match(result, as_bytes(data));
    }
  };
  std::thread t1(worker, std::cref(a), std::cref(expect_a));
  std::thread t2(worker, std::cref(b), std::cref(expect_b));
  t1.join();
  t2.join();
}

// --- Host chunker comparison path ---

TEST(HostChunker, MatchesSerial) {
  const auto chunker = small_chunker();
  const auto data = random_bytes(300000, 19);
  const rabin::RabinTables tables(chunker.window);
  const auto expected = chunking::chunk_serial(tables, chunker, as_bytes(data));
  for (bool arena : {false, true}) {
    const auto result =
        chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, arena, 4);
    EXPECT_EQ(result.chunks, expected);
    EXPECT_GT(result.virtual_throughput_bps, 0.0);
    EXPECT_GT(result.wall_throughput_bps, 0.0);
  }
}

TEST(HostChunker, HoardCalibrationFasterThanMalloc) {
  const auto chunker = small_chunker();
  const auto data = random_bytes(100000, 20);
  const auto with =
      chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, true, 4);
  const auto without =
      chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, false, 4);
  EXPECT_GT(with.virtual_throughput_bps, without.virtual_throughput_bps);
}

// The library's central invariant, swept across the configuration grid:
// every (mode, buffer size, window, min/max) combination must produce chunks
// bit-identical to the serial reference scanner.
struct GridCase {
  GpuMode mode;
  std::size_t buffer_bytes;
  std::size_t window;
  std::uint64_t min_size;
  std::uint64_t max_size;
};

class ShredderConfigGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ShredderConfigGrid, MatchesSerialReference) {
  const auto p = GetParam();
  ShredderConfig cfg;
  cfg.chunker.window = p.window;
  cfg.chunker.mask_bits = 9;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = p.min_size;
  cfg.chunker.max_size = p.max_size;
  cfg.buffer_bytes = p.buffer_bytes;
  cfg.mode = p.mode;
  cfg.kernel.blocks = 6;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 77 + p.window);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

std::vector<GridCase> shredder_grid() {
  std::vector<GridCase> cases;
  for (const GpuMode mode :
       {GpuMode::kBasic, GpuMode::kStreams, GpuMode::kStreamsCoalesced}) {
    for (const std::size_t buffer : {8192uL, 65536uL}) {
      for (const std::size_t window : {8uL, 48uL}) {
        for (const auto& [mn, mx] :
             {std::pair<std::uint64_t, std::uint64_t>{0, 0},
              std::pair<std::uint64_t, std::uint64_t>{256, 2048}}) {
          cases.push_back({mode, buffer, window, mn, mx});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, ShredderConfigGrid,
                         ::testing::ValuesIn(shredder_grid()));

TEST(Shredder, VirtualThroughputBeatsCalibratedHost) {
  // The headline: full Shredder > 5x the calibrated host throughput
  // (reader-capped at 2 GB/s vs 0.4 GB/s chunk-bound host).
  const auto data = random_bytes(16 << 20, 21);
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 1 << 20;
  cfg.mode = GpuMode::kStreamsCoalesced;
  cfg.kernel.blocks = 28;
  cfg.kernel.threads_per_block = 128;
  Shredder shredder(cfg);
  const auto gpu_result = shredder.run(as_bytes(data));
  const auto host_result =
      chunk_on_host(as_bytes(data), cfg.chunker, gpu::HostSpec{}, true, 4);
  EXPECT_GT(gpu_result.virtual_throughput_bps,
            4.0 * host_result.virtual_throughput_bps);
}

// --- Store-stage D2H batching ---
// Boundary and digest arrays ride back in ONE DMA descriptor per buffer
// (ROADMAP item: batch the fingerprint digests into the Store D2H).

TEST(Pipeline, StoreStageIsOneDescriptorPerBuffer) {
  const gpu::DeviceSpec spec;
  const std::size_t digest_bytes = 512 * sizeof(dedup::ChunkDigest);
  for (const bool pinned : {false, true}) {
    const gpu::HostMemKind kind =
        pinned ? gpu::HostMemKind::kPinned : gpu::HostMemKind::kPageable;
    for (const std::size_t n : {std::size_t{1}, std::size_t{1000}}) {
      const double batched = store_stage_seconds(spec, n, pinned, digest_bytes);
      // Exactly one combined transfer plus per-boundary handling...
      EXPECT_NEAR(batched,
                  gpu::dma_seconds(spec, n * 8 + digest_bytes,
                                   gpu::Direction::kDeviceToHost, kind) +
                      static_cast<double>(n) * 2e-9,
                  1e-15);
      // ...strictly cheaper than shipping the two arrays separately (the
      // per-transfer setup cost is paid once, not twice).
      const double split =
          gpu::dma_seconds(spec, n * 8, gpu::Direction::kDeviceToHost, kind) +
          gpu::dma_seconds(spec, digest_bytes, gpu::Direction::kDeviceToHost,
                           kind) +
          static_cast<double>(n) * 2e-9;
      EXPECT_LT(batched, split);
    }
    // An eos batch carrying only the trailing digest is a single digest DMA.
    EXPECT_NEAR(store_stage_seconds(spec, 0, pinned, digest_bytes),
                gpu::dma_seconds(spec, digest_bytes,
                                 gpu::Direction::kDeviceToHost, kind),
                1e-15);
  }
}

TEST(Pipeline, BatchedDigestReadbackLeavesDigestsUnchanged) {
  // End-to-end guard for the descriptor change: a fingerprinting run's
  // digests stay bit-identical to host SHA-256 over the same chunks.
  ShredderConfig cfg = small_config();
  cfg.fingerprint_on_device = true;
  Shredder shredder(cfg);
  const auto data = random_bytes(300000, 77);
  const auto result = shredder.run(as_bytes(data));
  ASSERT_EQ(result.digests.size(), result.chunks.size());
  ASSERT_GT(result.chunks.size(), 1u);
  for (std::size_t i = 0; i < result.chunks.size(); ++i) {
    const auto& c = result.chunks[i];
    EXPECT_EQ(result.digests[i],
              dedup::ChunkHasher::hash(as_bytes(data).subspan(
                  static_cast<std::size_t>(c.offset),
                  static_cast<std::size_t>(c.size))))
        << "chunk " << i;
  }
  EXPECT_GT(result.mean_stage_seconds.store, 0.0);
}

// --- Zero-copy slot leases ---

TEST(SlotLease, SharesSlotUntilLastReferenceDrops) {
  auto pool = std::make_shared<detail::SlotPool>(gpu::DeviceSpec{},
                                                 /*slots=*/2, /*slot_size=*/64);
  EXPECT_EQ(pool->leased(), 0u);
  const auto slot = pool->acquire();
  ASSERT_TRUE(slot.has_value());
  std::memset(pool->slot_span(*slot).data(), 7, 64);
  {
    SlotLease lease = SlotLease::from_slot(pool, *slot, 16);
    EXPECT_TRUE(lease.slot_backed());
    EXPECT_EQ(lease.size(), 16u);
    EXPECT_EQ(pool->leased(), 1u);
    SlotLease copy = lease;  // shares the slot, no second lease charge
    const SlotLease moved = std::move(lease);
    EXPECT_TRUE(lease.empty());  // moved-from holds no stale view
    EXPECT_EQ(pool->leased(), 1u);
    EXPECT_EQ(moved.bytes()[0], 7);
    EXPECT_EQ(copy.bytes().data(), moved.bytes().data());
  }
  EXPECT_EQ(pool->leased(), 0u);  // last reference dropped -> slot recycled
  ASSERT_TRUE(pool->acquire().has_value());  // and acquirable again

  const SlotLease owned = SlotLease::from_owned(ByteVec{1, 2, 3});
  EXPECT_FALSE(owned.slot_backed());
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_FALSE(SlotLease{}.slot_backed());
}

TEST(SlotPool, StopWakesWaitersAndRefusesNewLeases) {
  auto pool = std::make_shared<detail::SlotPool>(gpu::DeviceSpec{}, 1, 64);
  const auto slot = pool->acquire();
  ASSERT_TRUE(slot.has_value());
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_FALSE(pool->acquire().has_value());  // blocked, then stopped
    woke.store(true);
  });
  pool->stop();
  waiter.join();
  EXPECT_TRUE(woke.load());
  pool->release(*slot);                       // outstanding slots still return
  EXPECT_FALSE(pool->acquire().has_value());  // but nothing new is handed out
}

// Engine-level regression for the double-splice bug: every batch's payload
// must be byte-identical to carry_prefix ++ data as submitted, in both the
// slot-backed (streams) and owned (basic) representations.
class PipelinePayloadModes : public ::testing::TestWithParam<GpuMode> {};

TEST_P(PipelinePayloadModes, BatchPayloadIsCarryPrefixPlusData) {
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  PipelineEngineConfig cfg;
  cfg.mode = GetParam();
  cfg.slot_bytes = 8192;
  cfg.ring_slots = 3;
  cfg.kernel.blocks = 4;
  cfg.kernel.threads_per_block = 16;
  PipelineEngine engine(cfg, device, tables, chunker);

  const auto data = random_bytes(3 * 4096, 91);
  const std::size_t carry = chunker.window - 1;
  std::vector<ByteVec> expect_staged;
  std::vector<std::size_t> expect_carry;
  for (std::size_t i = 0; i < 3; ++i) {
    StreamBuffer buf;
    buf.seq = i;
    const std::size_t pos = i * 4096;
    buf.base_offset = i == 0 ? 0 : pos - carry;
    if (i == 1) {
      // Carry staged inside `data`: a producer holding both contiguously.
      buf.carry = carry;
      buf.data.assign(data.begin() + static_cast<std::ptrdiff_t>(pos - carry),
                      data.begin() + static_cast<std::ptrdiff_t>(pos + 4096));
    } else {
      // Carry as a separate prefix, the service-scheduler shape — the
      // layout the double host splice corrupted-by-copy.
      if (i > 0) {
        buf.carry_prefix.assign(
            data.begin() + static_cast<std::ptrdiff_t>(pos - carry),
            data.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      buf.data.assign(data.begin() + static_cast<std::ptrdiff_t>(pos),
                      data.begin() + static_cast<std::ptrdiff_t>(pos + 4096));
    }
    expect_staged.emplace_back(
        data.begin() + static_cast<std::ptrdiff_t>(buf.base_offset),
        data.begin() + static_cast<std::ptrdiff_t>(pos + 4096));
    expect_carry.push_back(i == 0 ? 0 : carry);
    ASSERT_TRUE(engine.submit(std::move(buf)));
  }
  StreamBuffer eos;
  eos.seq = 3;
  eos.eos = true;
  ASSERT_TRUE(engine.submit(std::move(eos)));
  engine.close();

  std::size_t i = 0;
  while (auto batch = engine.next_batch()) {
    if (batch->eos) continue;
    ASSERT_LT(i, expect_staged.size());
    EXPECT_EQ(batch->payload.slot_backed(), engine.pipelined());
    ASSERT_EQ(batch->payload.size(), expect_staged[i].size());
    EXPECT_EQ(std::memcmp(batch->payload.bytes().data(),
                          expect_staged[i].data(), expect_staged[i].size()),
              0)
        << "buffer " << i;
    EXPECT_EQ(batch->payload_carry, expect_carry[i]);
    ++i;
  }
  EXPECT_EQ(i, 3u);
  EXPECT_EQ(engine.slots_leased(), 0u);  // every lease dropped with its batch
}

INSTANTIATE_TEST_SUITE_P(BasicAndStreams, PipelinePayloadModes,
                         ::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                           GpuMode::kStreamsCoalesced));

TEST(Pipeline, LeaseHoldersExtendBackpressureWithoutLeaking) {
  // A consumer sitting on a batch's lease keeps the slot out of circulation:
  // with a 1-slot ring the producer cannot stage buffer i+1 until batch i's
  // lease drops. The slots_leased gauge tracks the outstanding count.
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  obs::Registry registry;
  PipelineEngineConfig cfg;
  cfg.mode = GpuMode::kStreams;
  cfg.slot_bytes = 4096;
  cfg.ring_slots = 1;
  cfg.kernel.blocks = 4;
  cfg.kernel.threads_per_block = 16;
  cfg.registry = &registry;
  PipelineEngine engine(cfg, device, tables, chunker);

  const auto data = random_bytes(3 * 2048, 93);
  std::atomic<std::size_t> submitted{0};
  std::thread producer([&] {
    for (std::size_t i = 0; i < 3; ++i) {
      StreamBuffer buf;
      buf.seq = i;
      buf.base_offset = i * 2048;
      buf.data.assign(data.begin() + static_cast<std::ptrdiff_t>(i * 2048),
                      data.begin() + static_cast<std::ptrdiff_t>((i + 1) * 2048));
      if (!engine.submit(std::move(buf))) break;
      submitted.fetch_add(1);
    }
    engine.close();
  });

  auto first = engine.next_batch();
  ASSERT_TRUE(first.has_value());
  ASSERT_FALSE(first->eos);
  // While we hold the only slot's lease, the producer is stuck staging
  // buffer 1 (buffer 0's submit was the one that went through).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(submitted.load(), 1u);
  EXPECT_EQ(engine.slots_leased(), 1u);
  EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 1.0);

  first.reset();  // drop the lease: the ring slot recycles, the producer runs
  while (auto batch = engine.next_batch()) {
  }
  producer.join();
  EXPECT_EQ(submitted.load(), 3u);
  EXPECT_EQ(engine.slots_leased(), 0u);
  EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 0.0);
}

}  // namespace
}  // namespace shredder::core
