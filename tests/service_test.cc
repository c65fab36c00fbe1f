// Tests for the multi-tenant ChunkingService: the service equivalence suite
// (K interleaved streams must be bit-identical to K dedicated Shredder runs),
// backpressure behaviour, weighted fairness, admission control and reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "chunking/cdc.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "service/service.h"

namespace shredder::service {
namespace {

chunking::ChunkerConfig small_chunker() {
  chunking::ChunkerConfig c;
  c.window = 16;
  c.mask_bits = 8;
  c.marker = 0x42;
  return c;
}

ServiceConfig small_service_config() {
  ServiceConfig cfg;
  cfg.chunker = small_chunker();
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  return cfg;
}

core::ShredderConfig matching_shredder_config(const ServiceConfig& cfg) {
  core::ShredderConfig scfg;
  scfg.chunker = cfg.chunker;
  scfg.buffer_bytes = cfg.buffer_bytes;
  scfg.mode = cfg.mode;
  scfg.kernel = cfg.kernel;
  scfg.ring_slots = cfg.ring_slots;
  scfg.device = cfg.device;
  scfg.host = cfg.host;
  scfg.sim_threads = cfg.sim_threads;
  return scfg;
}

// Dedicated single-stream reference for one tenant's bytes.
std::vector<chunking::Chunk> dedicated_chunks(const ServiceConfig& cfg,
                                              ByteSpan data) {
  core::Shredder shredder(matching_shredder_config(cfg));
  return shredder.run(data).chunks;
}

// --- The service equivalence suite -----------------------------------------

struct EquivalenceCase {
  core::GpuMode mode;
  std::size_t buffer_bytes;
  std::size_t n_streams;
  std::uint64_t min_size;
  std::uint64_t max_size;
};

class ServiceEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ServiceEquivalence, InterleavedStreamsMatchDedicatedRuns) {
  const auto p = GetParam();
  ServiceConfig cfg = small_service_config();
  cfg.mode = p.mode;
  cfg.buffer_bytes = p.buffer_bytes;
  cfg.chunker.min_size = p.min_size;
  cfg.chunker.max_size = p.max_size;

  // Distinct payload per tenant, deliberately not a multiple of buffer_bytes.
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < p.n_streams; ++k) {
    payloads.push_back(random_bytes(150000 + 37831 * k, 100 + k));
  }

  ChunkingService svc(cfg);
  std::vector<ChunkingService::StreamId> ids;
  for (std::size_t k = 0; k < p.n_streams; ++k) {
    TenantOptions opts;
    opts.name = "t";
    opts.name += std::to_string(k);
    ids.push_back(svc.open(std::move(opts)));
  }

  // Interleave ragged slices of every stream through the shared pipeline.
  std::vector<std::size_t> pos(p.n_streams, 0);
  SplitMix64 rng(7);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t k = 0; k < p.n_streams; ++k) {
      if (pos[k] >= payloads[k].size()) continue;
      const std::size_t n = std::min<std::size_t>(
          1 + rng.next_below(3 * cfg.buffer_bytes / 2),
          payloads[k].size() - pos[k]);
      svc.submit(ids[k], ByteSpan{payloads[k].data() + pos[k], n});
      pos[k] += n;
      progress = true;
    }
  }
  for (std::size_t k = 0; k < p.n_streams; ++k) svc.finish(ids[k]);

  for (std::size_t k = 0; k < p.n_streams; ++k) {
    const auto result = svc.wait(ids[k]);
    EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(payloads[k])))
        << "stream " << k;
    EXPECT_EQ(result.report.total_bytes, payloads[k].size());
    EXPECT_GT(result.report.virtual_seconds, 0.0);
  }
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, p.n_streams);
}

std::vector<EquivalenceCase> equivalence_grid() {
  std::vector<EquivalenceCase> cases;
  for (const core::GpuMode mode :
       {core::GpuMode::kBasic, core::GpuMode::kStreams,
        core::GpuMode::kStreamsCoalesced}) {
    for (const std::size_t buffer : {8192uL, 65536uL}) {
      for (const std::size_t k : {1uL, 3uL}) {
        cases.push_back({mode, buffer, k, 0, 0});
      }
    }
  }
  // Min/max splicing interleaved across 5 tenants.
  cases.push_back({core::GpuMode::kStreamsCoalesced, 16384, 5, 256, 2048});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ServiceEquivalence,
                         ::testing::ValuesIn(equivalence_grid()));

TEST(ChunkingService, ConcurrentProducersMatchDedicatedRuns) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 16 * 1024;
  cfg.tenant_queue_depth = 2;
  constexpr std::size_t kStreams = 6;

  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < kStreams; ++k) {
    payloads.push_back(random_bytes(120000 + 9973 * k, 500 + k));
  }

  ChunkingService svc(cfg);
  std::vector<ChunkingService::StreamId> ids;
  for (std::size_t k = 0; k < kStreams; ++k) ids.push_back(svc.open());

  std::vector<std::thread> producers;
  for (std::size_t k = 0; k < kStreams; ++k) {
    producers.emplace_back([&, k] {
      SplitMix64 rng(k);
      std::size_t pos = 0;
      while (pos < payloads[k].size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + rng.next_below(40000), payloads[k].size() - pos);
        svc.submit(ids[k], ByteSpan{payloads[k].data() + pos, n});
        pos += n;
      }
      svc.finish(ids[k]);
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t k = 0; k < kStreams; ++k) {
    const auto result = svc.wait(ids[k]);
    EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(payloads[k])))
        << "stream " << k;
  }
}

// Regression: wait() used to capture a sessions_ iterator before parking on
// complete_cv_ and erase through it afterwards. While the wait has mu_
// released, a concurrent open() can rehash the unordered_map and invalidate
// that iterator (wait() now erases by key). Churn whole sessions from many
// threads so inserts/rehashes land while other threads sit in wait().
TEST(ChunkingService, WaitSurvivesConcurrentSessionChurn) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 8 * 1024;
  cfg.max_tenants = 64;
  ChunkingService svc(cfg);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 6;
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    payloads.push_back(random_bytes(30000 + 1777 * k, 90 + k));
  }
  std::vector<std::vector<chunking::Chunk>> expected;
  for (std::size_t k = 0; k < kThreads; ++k) {
    expected.push_back(dedicated_chunks(cfg, as_bytes(payloads[k])));
  }

  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < kThreads; ++k) {
    workers.emplace_back([&, k] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const auto id = svc.open();
        svc.submit(id, as_bytes(payloads[k]));
        svc.finish(id);
        const auto result = svc.wait(id);
        EXPECT_EQ(result.chunks, expected[k])
            << "thread " << k << " round " << r;
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, kThreads * kRounds);
}

TEST(ChunkingService, ChunkStreamMatchesShredderRun) {
  ServiceConfig cfg = small_service_config();
  const auto data = random_bytes(300000, 11);
  ChunkingService svc(cfg);
  core::MemorySource source(as_bytes(data), cfg.host.reader_bw);
  const auto result = svc.chunk_stream(source);
  EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(data)));
  EXPECT_EQ(result.report.total_bytes, data.size());
}

// --- Backpressure -----------------------------------------------------------

// Runs `on_chunk` once per delivered chunk, in stream order, on the store
// thread — the gate the backpressure and fairness tests stall on.
class PerChunkSink final : public ChunkSink {
 public:
  explicit PerChunkSink(std::function<void(const chunking::Chunk&)> on_chunk)
      : on_chunk_(std::move(on_chunk)) {}
  void on_batch(const ChunkBatchView& batch) override {
    for (const auto& c : batch.chunks) on_chunk_(c);
  }

 private:
  std::function<void(const chunking::Chunk&)> on_chunk_;
};

// Collects every chunk and its bytes, in delivery order.
class PayloadCollector final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    for (std::size_t i = 0; i < batch.chunks.size(); ++i) {
      chunks.push_back(batch.chunks[i]);
      const ByteSpan b = batch.chunk_bytes(i);
      bytes.insert(bytes.end(), b.begin(), b.end());
    }
  }
  bool wants_payload() const noexcept override { return true; }

  std::vector<chunking::Chunk> chunks;
  ByteVec bytes;
};

TEST(ChunkingService, BasicModePayloadMatchesSerialScan) {
  // Basic mode stages every buffer in a fresh, uninitialised heap block:
  // the carry and the producer must overwrite every byte a batch hands out.
  ServiceConfig cfg = small_service_config();
  cfg.mode = core::GpuMode::kBasic;
  cfg.buffer_bytes = 8192;
  const auto data = random_bytes(100000, 33);
  ChunkingService svc(cfg);
  PayloadCollector sink;
  TenantOptions opts;
  opts.sink = &sink;
  const auto id = svc.open(std::move(opts));
  svc.submit(id, as_bytes(data));
  svc.finish(id);
  const auto result = svc.wait(id);
  const rabin::RabinTables tables(cfg.chunker.window);
  const auto serial =
      chunking::chunk_serial(tables, cfg.chunker, as_bytes(data));
  EXPECT_EQ(result.chunks, serial);
  EXPECT_EQ(sink.chunks, serial);
  EXPECT_EQ(sink.bytes, data);
}

TEST(ChunkingService, SlowConsumerNeverDeadlocksOrDropsBuffers) {
  // Tiny queues everywhere and a consumer that stalls on every chunk: the
  // whole pipeline backs up to the producer, which must simply block (never
  // drop or deadlock) and the output must still be exact.
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 4096;
  cfg.ring_slots = 2;
  cfg.tenant_queue_depth = 1;

  const auto data = random_bytes(120000, 21);
  std::atomic<std::uint64_t> delivered{0};
  ChunkingService svc(cfg);
  PerChunkSink slow([&](const chunking::Chunk& c) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    delivered += c.size;
  });
  TenantOptions opts;
  opts.sink = &slow;
  const auto id = svc.open(std::move(opts));
  svc.submit(id, as_bytes(data));
  svc.finish(id);
  const auto result = svc.wait(id);
  EXPECT_EQ(delivered.load(), data.size());
  EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(data)));
  // The producer outran the device, so the dispatch queue really filled up.
  EXPECT_EQ(result.report.max_queue_depth, cfg.tenant_queue_depth);
}

TEST(ChunkingService, TrySubmitShedsLoadInsteadOfBlocking) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 4096;
  cfg.ring_slots = 2;
  cfg.tenant_queue_depth = 1;

  // Stall the store thread on the first chunk so the pipeline stays full.
  std::promise<void> release;
  std::shared_future<void> release_f(release.get_future());
  std::atomic<bool> stalled{false};
  ChunkingService svc(cfg);
  PerChunkSink stall([&, release_f](const chunking::Chunk&) {
    if (!stalled.exchange(true)) release_f.wait();
  });
  TenantOptions opts;
  opts.sink = &stall;
  const auto id = svc.open(std::move(opts));

  const auto buffer = random_bytes(cfg.buffer_bytes, 31);
  // The pipeline holds a bounded number of buffers; with the store stalled,
  // try_submit must start returning false after finitely many successes.
  bool saw_false = false;
  std::size_t accepted = 0;
  for (int i = 0; i < 64 && !saw_false; ++i) {
    if (svc.try_submit(id, as_bytes(buffer))) {
      ++accepted;
    } else {
      saw_false = true;  // refused without blocking or consuming anything
    }
  }
  EXPECT_TRUE(saw_false) << "pipeline accepted unbounded buffers";
  release.set_value();
  svc.finish(id);
  const auto result = svc.wait(id);
  EXPECT_EQ(result.report.total_bytes, accepted * cfg.buffer_bytes);
}

// --- Fairness and reports ---------------------------------------------------

TEST(ChunkingService, WeightedTenantFinishesFirstInVirtualTime) {
  // Deterministic contention: deep tenant queues hold each stream entirely,
  // and the store thread is gated on a promise until both tenants have
  // fully queued — so virtually all dispatches happen with both tenants
  // ready and the credit scheduler in charge, regardless of how the OS
  // interleaves the producers.
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 8192;
  cfg.tenant_queue_depth = 40;  // holds all 32 buffers of one stream

  const auto data_a = random_bytes(256 * 1024, 41);
  const auto data_b = random_bytes(256 * 1024, 42);
  std::promise<void> gate;
  std::shared_future<void> gate_f(gate.get_future());
  ChunkingService svc(cfg);
  PerChunkSink gated([gate_f](const chunking::Chunk&) { gate_f.wait(); });
  TenantOptions heavy;
  heavy.weight = 8;
  heavy.sink = &gated;
  TenantOptions light;
  light.sink = &gated;
  const auto id_a = svc.open(std::move(heavy));
  const auto id_b = svc.open(std::move(light));

  svc.submit(id_a, as_bytes(data_a));
  svc.submit(id_b, as_bytes(data_b));
  svc.finish(id_a);
  svc.finish(id_b);
  gate.set_value();  // both queues loaded; let the pipeline drain
  const auto ra = svc.wait(id_a);
  const auto rb = svc.wait(id_b);
  // 8x the dispatch share means the heavy tenant's stream completes much
  // earlier on the shared virtual timeline.
  EXPECT_LT(ra.report.virtual_seconds, rb.report.virtual_seconds);
}

TEST(ChunkingService, AggregateReportSumsTenants) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 16 * 1024;
  const auto data = random_bytes(200000, 51);
  ChunkingService svc(cfg);
  const auto a = svc.open();
  const auto b = svc.open();
  svc.submit(a, as_bytes(data));
  svc.submit(b, as_bytes(data));
  svc.finish(a);
  svc.finish(b);
  svc.wait(a);
  svc.wait(b);
  const auto report = svc.shutdown();
  EXPECT_EQ(report.total_bytes, 2 * data.size());
  EXPECT_EQ(report.n_tenants, 2u);
  EXPECT_EQ(report.tenants.size(), 2u);
  EXPECT_GT(report.virtual_seconds, 0.0);
  EXPECT_GT(report.aggregate_throughput_bps, 0.0);
  EXPECT_GT(report.device_occupancy, 0.0);
  EXPECT_LE(report.device_occupancy, 1.0);
  EXPECT_GT(report.h2d_busy_seconds, 0.0);
}

TEST(ChunkingService, SharingBeatsSerialVirtualThroughput) {
  // Four tenants sharing the device must beat one tenant's throughput:
  // the whole point of the service (device no longer idles between one
  // stream's buffers).
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 256 * 1024;
  auto run_n = [&](std::size_t n) {
    const auto data = random_bytes(1 << 20, 61);
    ChunkingService svc(cfg);
    std::vector<std::thread> producers;
    std::vector<ChunkingService::StreamId> ids;
    for (std::size_t k = 0; k < n; ++k) ids.push_back(svc.open());
    for (std::size_t k = 0; k < n; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[k], as_bytes(data));
        svc.finish(ids[k]);
      });
    }
    for (auto& t : producers) t.join();
    for (const auto id : ids) svc.wait(id);
    return svc.shutdown().aggregate_throughput_bps;
  };
  const double one = run_n(1);
  const double four = run_n(4);
  EXPECT_GT(four, 1.5 * one);
}

// --- Admission and lifecycle ------------------------------------------------

TEST(ChunkingService, AdmissionControl) {
  ServiceConfig cfg = small_service_config();
  cfg.max_tenants = 1;
  ChunkingService svc(cfg);
  const auto id = svc.open();
  EXPECT_THROW(svc.open(), std::runtime_error);
  svc.finish(id);
  svc.wait(id);
  // Slot freed: admission works again.
  const auto id2 = svc.open();
  svc.finish(id2);
  svc.wait(id2);
}

TEST(ChunkingService, LifecycleErrors) {
  ServiceConfig cfg = small_service_config();
  ChunkingService svc(cfg);
  TenantOptions zero_weight;
  zero_weight.weight = 0;
  EXPECT_THROW(svc.open(std::move(zero_weight)), std::invalid_argument);
  EXPECT_THROW(svc.submit(999, {}), std::invalid_argument);
  const auto id = svc.open();
  svc.finish(id);
  const auto payload = random_bytes(10, 1);
  EXPECT_THROW(svc.submit(id, as_bytes(payload)), std::logic_error);
  // shutdown() refuses while another stream is unfinished.
  const auto id2 = svc.open();
  EXPECT_THROW(svc.shutdown(), std::logic_error);
  svc.finish(id2);
  svc.wait(id);
  svc.wait(id2);
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, 2u);
  EXPECT_THROW(svc.open(), std::runtime_error);
}

TEST(ChunkingService, EmptyStreamYieldsNoChunks) {
  ServiceConfig cfg = small_service_config();
  ChunkingService svc(cfg);
  const auto id = svc.open();
  svc.finish(id);
  const auto result = svc.wait(id);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_EQ(result.report.total_bytes, 0u);
}

TEST(ChunkingService, ConfigValidation) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 4;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.ring_slots = 0;  // pipeline settings: the engine config's checks
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.kernel.blocks = 0;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.max_tenants = 0;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.tenant_queue_depth = 0;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.dedup_on_store = true;  // needs the device digests
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
}

// --- Inline dedup against the shared fingerprint index ---------------------

TEST(ChunkingService, InlineDedupAcrossTenants) {
  // Two tenants stream the same payload, a third streams distinct bytes.
  // With dedup_on_store every chunk probes one service-wide index, so one
  // copy of the shared payload's chunks is unique and the other is entirely
  // duplicate — regardless of how the streams interleaved.
  for (const auto kind :
       {dedup::IndexKind::kPaperBaseline, dedup::IndexKind::kSparse}) {
    ServiceConfig cfg = small_service_config();
    cfg.fingerprint_on_device = true;
    cfg.dedup_on_store = true;
    cfg.index.kind = kind;
    ChunkingService svc(cfg);
    const auto shared_payload = random_bytes(256 * 1024, 31);
    const auto distinct_payload = random_bytes(256 * 1024, 32);
    const auto shared_chunks =
        dedicated_chunks(cfg, as_bytes(shared_payload)).size();
    const auto distinct_chunks =
        dedicated_chunks(cfg, as_bytes(distinct_payload)).size();

    std::vector<ChunkingService::StreamId> ids;
    for (int k = 0; k < 3; ++k) ids.push_back(svc.open());
    std::vector<std::thread> producers;
    for (int k = 0; k < 3; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[static_cast<std::size_t>(k)],
                   k < 2 ? as_bytes(shared_payload)
                         : as_bytes(distinct_payload));
        svc.finish(ids[static_cast<std::size_t>(k)]);
      });
    }
    for (auto& t : producers) t.join();
    std::uint64_t dup_chunks = 0;
    double index_seconds = 0;
    for (const auto id : ids) {
      const auto res = svc.wait(id);
      dup_chunks += res.report.n_duplicate_chunks;
      index_seconds += res.report.index_seconds;
    }
    const auto report = svc.shutdown();
    ASSERT_NE(svc.dedup_index(), nullptr);
    EXPECT_EQ(report.dedup_unique_chunks, shared_chunks + distinct_chunks);
    EXPECT_EQ(report.dedup_duplicate_chunks, shared_chunks);
    EXPECT_EQ(dup_chunks, shared_chunks);
    EXPECT_GT(index_seconds, 0.0);
    EXPECT_NEAR(report.index_virtual_seconds, index_seconds, 1e-12);
  }
}

TEST(ChunkingService, DedupStoreHoldsUniquePayloads) {
  // With dedup_on_store the service is a backup target: unique chunk
  // payloads land in the shared ChunkStore, duplicates add a reference, and
  // the recorded bytes reconstruct every stream.
  ServiceConfig cfg = small_service_config();
  cfg.fingerprint_on_device = true;
  cfg.dedup_on_store = true;
  ChunkingService svc(cfg);
  ASSERT_NE(svc.chunk_store(), nullptr);
  const auto payload = random_bytes(256 * 1024, 41);

  const auto id_a = svc.open();
  const auto id_b = svc.open();
  for (const auto id : {id_a, id_b}) {
    svc.submit(id, as_bytes(payload));
    svc.finish(id);
  }
  const auto res_a = svc.wait(id_a);
  const auto res_b = svc.wait(id_b);
  const auto report = svc.shutdown();
  const dedup::ChunkStore& store = *svc.chunk_store();

  // One tenant contributed every unique payload, the other only references.
  EXPECT_EQ(res_a.report.stored_bytes + res_b.report.stored_bytes,
            payload.size());
  EXPECT_EQ(report.dedup_stored_bytes, payload.size());
  EXPECT_EQ(store.unique_bytes(), payload.size());
  EXPECT_EQ(store.unique_chunks(), res_a.chunks.size());
  // Both tenants' chunks are referenced: one ref per stored chunk + one per
  // duplicate.
  EXPECT_EQ(store.total_refs(), res_a.chunks.size() + res_b.chunks.size());
  // The stored payloads reconstruct the stream byte-for-byte.
  ByteVec rebuilt;
  for (std::size_t i = 0; i < res_a.chunks.size(); ++i) {
    const auto bytes = store.get(res_a.digests[i]);
    ASSERT_TRUE(bytes.has_value());
    EXPECT_EQ(bytes->size(), res_a.chunks[i].size);
    rebuilt.insert(rebuilt.end(), bytes->begin(), bytes->end());
  }
  EXPECT_EQ(rebuilt, payload);
}

TEST(ChunkingService, SharedStoreSpansServices) {
  // Two services sharing one ChunkStore: the second service re-stores
  // nothing for content the first already holds (store-level dedup even
  // though each service keeps its own index).
  const auto payload = random_bytes(128 * 1024, 43);
  auto store = std::make_shared<dedup::ChunkStore>();
  for (int round = 0; round < 2; ++round) {
    ServiceConfig cfg = small_service_config();
    cfg.fingerprint_on_device = true;
    cfg.dedup_on_store = true;
    cfg.store = store;
    ChunkingService svc(cfg);
    const auto id = svc.open();
    svc.submit(id, as_bytes(payload));
    svc.finish(id);
    const auto res = svc.wait(id);
    svc.shutdown();
    // Round 0 stores everything; round 1 finds every chunk already present.
    EXPECT_EQ(res.report.stored_bytes,
              round == 0 ? payload.size() : 0u);
  }
  EXPECT_EQ(store->unique_bytes(), payload.size());
}

TEST(ChunkingService, StoreWithoutDedupRejected) {
  ServiceConfig cfg = small_service_config();
  cfg.store = std::make_shared<dedup::ChunkStore>();
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
}

TEST(ChunkingService, NoDedupIndexUnlessEnabled) {
  ServiceConfig cfg = small_service_config();
  ChunkingService svc(cfg);
  EXPECT_EQ(svc.dedup_index(), nullptr);
  const auto id = svc.open();
  svc.finish(id);
  const auto res = svc.wait(id);
  EXPECT_EQ(res.report.n_duplicate_chunks, 0u);
  svc.shutdown();
}

}  // namespace
}  // namespace shredder::service
