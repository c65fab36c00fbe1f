// Primitive micro-benchmarks (google-benchmark): the building blocks whose
// costs the figure benches compose — Rabin window pushes, the canonical
// scanner, the batched buffer fast path, parallel chunking, min/max
// filtering, baseline chunkers, SHA-256 hashing and the dedup index.
//
// JSON modes (the kJsonModes table at the bottom): `--<name>_json[=PATH]`
// skips the google-benchmark suite, runs one scenario, writes PATH (default
// BENCH_<name>.json in the working directory) and exits non-zero when the
// scenario's acceptance bar fails.
//
//   chunking        raw-boundary scan throughput (seed StreamScanner vs the
//                   scan_buffer fast path, serial and parallel) on 64 MiB;
//                   wall clock, see docs/perf.md.
//   service         aggregate virtual throughput of the ChunkingService at
//                   N = 1, 4, 16 tenants against the dedicated single-stream
//                   Shredder baseline (docs/service.md).
//   sink_zero_copy  a payload-consuming sink at the 2 KB operating point
//                   over the in-memory and the streaming (slot-lease) paths;
//                   bar: streaming >= 0.95x in-memory wall throughput
//                   (docs/zero_copy.md). `sink_zero_copy_smoke` is the
//                   small-input variant (bar 0.9x, BENCH_sink_smoke.json).
//   fingerprint     a VM snapshot backed up with host hashing and with the
//                   on-device SHA-256 stage; bar: device >= 1.3x host
//                   end-to-end (docs/fingerprint.md).
//   index           a 4 KB-chunked snapshot pair's digest stream through
//                   both index backends; bar: sparse >= 3x baseline at the
//                   low-similarity point (docs/dedup_index.md).
//   agent           a duplicate-heavy 2 KB-chunked snapshot over the
//                   extent-coalesced wire vs the per-chunk link price; bar:
//                   batch >= 1.5x faster on the link stage
//                   (docs/backup_wire.md).
//   transport       the same snapshot over the ack-clocked transport at
//                   {0, 1, 5, 10, 20}% frame loss; bar: goodput at 1% loss
//                   >= 0.7x lossless (docs/backup_wire.md).
//   obs             the disabled-registry overhead (bar: <= 2%), a
//                   16-tenant service and a 1%-loss transport with metrics
//                   and tracing on, exported as Perfetto-loadable
//                   TRACE_obs_service.json / TRACE_obs_transport.json in
//                   the working directory, traced engine busy vs
//                   GpuTimeline::engine_busy (bar: within 1%)
//                   (docs/observability.md). `obs_smoke` is the small
//                   variant (BENCH_obs_smoke.json) with the same bars.
//   retention       N high-churn snapshots backed up, half deleted, GC and
//                   entry-log compaction; bars: >= 80% of dead bytes
//                   reclaimed, store and entry log shrink >= 40%, survivors
//                   recreate bit-identically, probe decisions identical
//                   across compaction (docs/retention.md).
//
// service, fingerprint, index, agent, transport and retention are virtual
// time only, so their files regenerate byte for byte; scripts/ci.sh reruns
// them and compares against the committed files.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "backup/backup_server.h"
#include "chunking/cdc.h"
#include "chunking/fixed.h"
#include "chunking/minmax.h"
#include "chunking/parallel.h"
#include "chunking/samplebyte.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/shredder.h"
#include "dedup/index.h"
#include "dedup/sha256.h"
#include "dedup/sha256_compress.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/service.h"

namespace {

using namespace shredder;

const ByteVec& payload() {
  static const ByteVec data = random_bytes(8ull << 20, 77);
  return data;
}

chunking::ChunkerConfig default_config() {
  chunking::ChunkerConfig c;
  c.window = 48;
  c.mask_bits = 13;
  c.marker = 0x78;
  return c;
}

void BM_RabinWindowPush(benchmark::State& state) {
  const rabin::RabinTables tables(48);
  rabin::RabinWindow window(tables);
  const auto& data = payload();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.push(data[i]));
    i = (i + 1) & ((1 << 20) - 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RabinWindowPush);

void BM_SerialScan(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    std::uint64_t count = 0;
    chunking::scan_raw(tables, config, data, 0, 0,
                       [&](std::uint64_t, std::uint64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_SerialScan);

void BM_BufferScan(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    std::uint64_t count = 0;
    chunking::scan_buffer(tables, config, data, 0, 0,
                          [&](std::uint64_t, std::uint64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_BufferScan);

void BM_ParallelChunker(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  chunking::ParallelChunker chunker(
      tables, config, static_cast<std::size_t>(state.range(0)));
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ParallelChunker)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

void BM_SampleByte(benchmark::State& state) {
  const chunking::SampleByteChunker chunker(8192, 16, 3);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.boundaries(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_SampleByte);

void BM_FixedChunking(benchmark::State& state) {
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunking::chunk_fixed(data, 8192));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunking);

void BM_MinMaxFilter(benchmark::State& state) {
  // Typical raw boundary stream: ~8 KB spacing over 64 MB.
  std::vector<std::uint64_t> raw;
  SplitMix64 rng(5);
  std::uint64_t pos = 0;
  while (pos < (64ull << 20)) {
    pos += 1 + rng.next_below(16384);
    raw.push_back(pos);
  }
  const std::uint64_t total = pos + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chunking::apply_min_max(raw, total, 2048, 16384));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_MinMaxFilter);

void BM_Sha256(benchmark::State& state) {
  const ByteSpan data = as_bytes(payload()).first(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup::Sha256::hash(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(2048)->Arg(4096)->Arg(8192)->Arg(65536);

// The two block compresses behind Sha256 over one chunk's worth of whole
// blocks. Second arg: 0 = scalar, 1 = SHA-NI (skipped without the CPU
// extensions).
void BM_Sha256Compress(benchmark::State& state) {
  const bool shani = state.range(1) != 0;
  if (shani && !dedup::detail::sha256_shani_supported()) {
    state.SkipWithError("CPU lacks the SHA extensions");
    return;
  }
  const auto compress = shani ? &dedup::detail::sha256_compress_shani
                              : &dedup::detail::sha256_compress_scalar;
  const std::uint8_t* data = as_bytes(payload()).data();
  const auto blocks = static_cast<std::size_t>(state.range(0)) / 64;
  std::uint32_t st[8] = {};
  for (auto _ : state) {
    compress(st, data, blocks);
    benchmark::DoNotOptimize(st);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Compress)->ArgsProduct({{2048, 4096, 8192}, {0, 1}});

void BM_ChunkIndexLookup(benchmark::State& state) {
  dedup::ChunkIndex index(0.0);
  std::vector<dedup::ChunkDigest> digests;
  for (int i = 0; i < 10000; ++i) {
    const auto d = dedup::ChunkHasher::hash(
        ByteSpan{reinterpret_cast<const std::uint8_t*>(&i), sizeof(i)});
    digests.push_back(d);
    index.lookup_or_insert(d, {static_cast<std::uint64_t>(i), 4096});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.lookup(digests[i % digests.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChunkIndexLookup);

// --- --chunking_json mode -------------------------------------------------

struct ScanResult {
  std::string name;
  double seconds = 0;
  double bytes_per_sec = 0;
  std::uint64_t boundaries = 0;
};

// Best-of-N wall time for one scan strategy (best-of reduces scheduler noise
// on shared machines; both paths are measured identically).
template <typename Fn>
ScanResult measure_scan(const std::string& name, std::uint64_t bytes, Fn&& fn,
                        int reps = 3) {
  ScanResult r;
  r.name = name;
  r.seconds = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    const std::uint64_t count = fn();
    const double s = watch.elapsed_seconds();
    if (s < r.seconds) {
      r.seconds = s;
      r.boundaries = count;
    }
  }
  r.bytes_per_sec = static_cast<double>(bytes) / r.seconds;
  return r;
}

int run_chunking_json(const std::string& path) {
  const std::uint64_t kBytes = 64ull << 20;  // acceptance floor: >= 64 MiB
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  const ByteVec input = random_bytes(kBytes, 4242);
  const ByteSpan data = as_bytes(input);

  std::vector<ScanResult> results;
  results.push_back(measure_scan("stream_scan_serial", kBytes, [&] {
    std::uint64_t count = 0;
    chunking::scan_raw(tables, config, data, 0, 0,
                       [&](std::uint64_t, std::uint64_t) { ++count; });
    return count;
  }));
  results.push_back(measure_scan("buffer_scan_serial", kBytes, [&] {
    std::uint64_t count = 0;
    chunking::scan_buffer(tables, config, data, 0, 0,
                          [&](std::uint64_t, std::uint64_t) { ++count; });
    return count;
  }));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    chunking::ParallelChunker chunker(tables, config, threads,
                                      chunking::AllocMode::kThreadArena);
    results.push_back(measure_scan(
        "buffer_scan_parallel_t" + std::to_string(threads), kBytes,
        [&] { return chunker.raw_boundaries(data).size(); }));
  }

  const double stream = results[0].bytes_per_sec;
  const double buffer = results[1].bytes_per_sec;
  const double speedup = buffer / stream;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"input_bytes\": %llu,\n",
               static_cast<unsigned long long>(kBytes));
  std::fprintf(f, "  \"window\": %zu,\n", config.window);
  std::fprintf(f, "  \"mask_bits\": %u,\n", config.mask_bits);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"bytes_per_sec\": %.0f, \"boundaries\": %llu}%s\n",
                 r.name.c_str(), r.seconds, r.bytes_per_sec,
                 static_cast<unsigned long long>(r.boundaries),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_buffer_over_stream\": %.3f\n", speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);

  for (const auto& r : results) {
    std::printf("%-26s %8.1f MB/s  (%llu boundaries)\n", r.name.c_str(),
                r.bytes_per_sec / 1e6,
                static_cast<unsigned long long>(r.boundaries));
  }
  std::printf("speedup buffer/stream: %.2fx  -> %s\n", speedup, path.c_str());
  return 0;
}

// --- --service_json mode --------------------------------------------------

struct ServicePoint {
  std::size_t n_streams = 0;
  double aggregate_bps = 0;
  double speedup_vs_baseline = 0;
  double device_occupancy = 0;
  double h2d_busy_fraction = 0;
};

int run_service_json(const std::string& path) {
  const std::size_t per_tenant = 8u << 20;
  const std::vector<std::size_t> fleet = {1, 4, 16};
  const std::size_t max_n = fleet.back();

  service::ServiceConfig cfg;  // paper chunker: w=48, 13 bits, 0x78
  cfg.buffer_bytes = 1u << 20;
  cfg.max_tenants = max_n;

  // Distinct payload per tenant so streams do not trivially share content.
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < max_n; ++k) {
    payloads.push_back(random_bytes(per_tenant, 9000 + k));
  }

  // Single-stream baseline: a dedicated Shredder pipeline over tenant 0.
  core::ShredderConfig base_cfg;
  base_cfg.chunker = cfg.chunker;
  base_cfg.buffer_bytes = cfg.buffer_bytes;
  base_cfg.mode = cfg.mode;
  base_cfg.kernel = cfg.kernel;
  base_cfg.ring_slots = cfg.ring_slots;
  core::Shredder baseline_shredder(base_cfg);
  const double baseline_bps =
      baseline_shredder.run(as_bytes(payloads[0])).virtual_throughput_bps;

  std::vector<ServicePoint> points;
  for (const std::size_t n : fleet) {
    service::ChunkingService svc(cfg);
    std::vector<service::ChunkingService::StreamId> ids;
    for (std::size_t k = 0; k < n; ++k) ids.push_back(svc.open());
    std::vector<std::thread> producers;
    for (std::size_t k = 0; k < n; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[k], as_bytes(payloads[k]));
        svc.finish(ids[k]);
      });
    }
    for (auto& t : producers) t.join();
    for (const auto id : ids) svc.wait(id);
    const auto report = svc.shutdown();
    ServicePoint p;
    p.n_streams = n;
    p.aggregate_bps = report.aggregate_throughput_bps;
    p.speedup_vs_baseline = p.aggregate_bps / baseline_bps;
    p.device_occupancy = report.device_occupancy;
    p.h2d_busy_fraction = report.virtual_seconds > 0
                              ? report.h2d_busy_seconds / report.virtual_seconds
                              : 0.0;
    points.push_back(p);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"per_tenant_bytes\": %llu,\n",
               static_cast<unsigned long long>(per_tenant));
  std::fprintf(f, "  \"buffer_bytes\": %llu,\n",
               static_cast<unsigned long long>(cfg.buffer_bytes));
  std::fprintf(f, "  \"single_stream_baseline_bps\": %.0f,\n", baseline_bps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"n_streams\": %zu, \"aggregate_bps\": %.0f, "
                 "\"speedup_vs_baseline\": %.3f, \"device_occupancy\": %.3f, "
                 "\"h2d_busy_fraction\": %.3f}%s\n",
                 p.n_streams, p.aggregate_bps, p.speedup_vs_baseline,
                 p.device_occupancy, p.h2d_busy_fraction,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("single-stream baseline: %8.1f MB/s\n", baseline_bps / 1e6);
  for (const auto& p : points) {
    std::printf("N=%-3zu aggregate %8.1f MB/s  (%.2fx baseline, "
                "compute occupancy %.0f%%, h2d busy %.0f%%)\n",
                p.n_streams, p.aggregate_bps / 1e6, p.speedup_vs_baseline,
                p.device_occupancy * 100, p.h2d_busy_fraction * 100);
  }
  std::printf("-> %s\n", path.c_str());
  return 0;
}

// --- --sink_zero_copy_json mode -------------------------------------------

// Payload-consuming sink for the zero-copy bench: touches every chunk's
// bytes (head + tail, the shape of a header-sniffing consumer) so the
// payload path is really exercised, and folds them into a checksum used to
// cross-check the streaming and in-memory runs deliver identical bytes.
class PayloadProbeSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    for (std::size_t i = 0; i < batch.chunks.size(); ++i) {
      const ByteSpan bytes = batch.chunk_bytes(i);
      std::uint64_t h = 1469598103934665603ull ^ bytes.size();
      const std::size_t probe = std::min<std::size_t>(32, bytes.size());
      for (std::size_t k = 0; k < probe; ++k) {
        h = (h ^ bytes[k]) * 1099511628211ull;
        h = (h ^ bytes[bytes.size() - 1 - k]) * 1099511628211ull;
      }
      checksum_ ^= h;
    }
  }
  bool wants_payload() const noexcept override { return true; }
  std::uint64_t checksum() const noexcept { return checksum_; }

 private:
  std::uint64_t checksum_ = 0;
};

int run_sink_zero_copy_json(const std::string& path, bool smoke) {
  // The 2 KB small-chunk operating point (the backup wire's regression
  // point): payload-per-chunk is small, so per-stage copies used to dominate
  // the streaming path. With refcounted slot leases the streaming (DataSource)
  // run must hold the in-memory ByteSpan run's wall throughput.
  const std::size_t input_bytes = smoke ? (8u << 20) : (32u << 20);
  const double bar = smoke ? 0.90 : 0.95;
  const ByteVec data = random_bytes(input_bytes, 4242);

  core::ShredderConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.buffer_bytes = 512u << 10;

  std::vector<chunking::Chunk> span_chunks, stream_chunks;
  std::uint64_t span_sum = 0, stream_sum = 0;
  double best_span = 1e300, best_stream = 1e300;
  // Best-of-N wall time, paths alternating; rep 0 warms allocators/caches
  // for both and is the run whose streams are cross-checked.
  const int reps = smoke ? 3 : 4;
  for (int r = 0; r < reps; ++r) {
    {
      core::Shredder shredder(cfg);
      PayloadProbeSink sink;
      Stopwatch w;
      const auto res = shredder.run(as_bytes(data), sink);
      best_span = std::min(best_span, w.elapsed_seconds());
      if (r == 0) {
        span_chunks = res.chunks;
        span_sum = sink.checksum();
      }
    }
    {
      core::Shredder shredder(cfg);
      core::MemorySource source(as_bytes(data),
                                shredder.config().host.reader_bw);
      PayloadProbeSink sink;
      Stopwatch w;
      const auto res = shredder.run(source, sink);
      best_stream = std::min(best_stream, w.elapsed_seconds());
      if (r == 0) {
        stream_chunks = res.chunks;
        stream_sum = sink.checksum();
      }
    }
  }
  const bool identical = span_chunks == stream_chunks && span_sum == stream_sum;
  const double span_bps = static_cast<double>(input_bytes) / best_span;
  const double stream_bps = static_cast<double>(input_bytes) / best_stream;
  const double ratio = stream_bps / span_bps;
  const bool pass = identical && ratio >= bar;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"input_bytes\": %llu,\n",
               static_cast<unsigned long long>(input_bytes));
  std::fprintf(f, "  \"buffer_bytes\": %llu,\n",
               static_cast<unsigned long long>(cfg.buffer_bytes));
  std::fprintf(f, "  \"chunks\": %zu,\n", span_chunks.size());
  std::fprintf(f, "  \"streams_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"bar\": %.2f,\n", bar);
  std::fprintf(f, "  \"results\": [\n");
  std::fprintf(f,
               "    {\"path\": \"bytespan\", \"wall_seconds\": %.6f, "
               "\"wall_bps\": %.0f},\n",
               best_span, span_bps);
  std::fprintf(f,
               "    {\"path\": \"streaming\", \"wall_seconds\": %.6f, "
               "\"wall_bps\": %.0f, \"ratio_vs_bytespan\": %.3f}\n",
               best_stream, stream_bps, ratio);
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("in-memory ByteSpan path: %8.1f MB/s wall\n", span_bps / 1e6);
  std::printf("streaming (DataSource):  %8.1f MB/s wall  (%.3fx, bar %.2fx, "
              "streams %s)\n",
              stream_bps / 1e6, ratio, bar,
              identical ? "identical" : "DIVERGED");
  std::printf("-> %s\n", path.c_str());
  if (!pass) {
    std::fprintf(stderr, "sink_zero_copy: FAILED (%s)\n",
                 identical ? "ratio below bar" : "stream mismatch");
    return 1;
  }
  return 0;
}

// --- --fingerprint_json mode ------------------------------------------------

int run_fingerprint_json(const std::string& path) {
  using namespace shredder::backup;
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 64ull << 20;
  repo_cfg.segment_bytes = 1ull << 20;
  repo_cfg.seed = 1234;
  ImageRepository repo(repo_cfg);

  // Paper-scale backup chunker, tuned so the index stage stays off the
  // critical path (~8 KB chunks): the host-hash run is hash-bound, the
  // device-hash run is generation-bound.
  auto server_config = [&](bool device_hash) {
    BackupServerConfig cfg;
    cfg.backend = ChunkerBackend::kShredderGpu;
    cfg.chunker.window = 48;
    cfg.chunker.mask_bits = 13;
    cfg.chunker.marker = 0x78;
    cfg.chunker.min_size = 4 * 1024;
    cfg.chunker.max_size = 32 * 1024;
    cfg.shredder.buffer_bytes = 8ull << 20;
    cfg.fingerprint_on_device = device_hash;
    return cfg;
  };

  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.10, 2);

  BackupRunStats host_stats, device_stats;
  for (const bool device_hash : {false, true}) {
    BackupServer server(server_config(device_hash));
    BackupAgent agent;
    server.backup_image("base", as_bytes(base), repo, agent);
    const auto stats = server.backup_image("snap", as_bytes(snap), repo, agent);
    if (!stats.verified) {
      std::fprintf(stderr, "fingerprint bench: backup verification failed\n");
      return 1;
    }
    (device_hash ? device_stats : host_stats) = stats;
  }
  const double speedup = host_stats.backup_bandwidth_gbps > 0
                             ? device_stats.backup_bandwidth_gbps /
                                   host_stats.backup_bandwidth_gbps
                             : 0.0;

  // Pipeline overlap evidence: a fingerprinting Shredder run over the same
  // snapshot; the hash kernel of buffer i overlaps the H2D of buffer i+1,
  // so the makespan stays well under the serialized stage sum.
  core::ShredderConfig pipe_cfg = server_config(true).shredder;
  pipe_cfg.chunker = server_config(true).chunker;
  pipe_cfg.fingerprint_on_device = true;
  core::Shredder shredder(pipe_cfg);
  const auto pipe = shredder.run(as_bytes(snap));
  const auto& m = pipe.mean_stage_seconds;
  const double overlap =
      pipe.virtual_seconds > 0 ? pipe.serialized_seconds / pipe.virtual_seconds
                               : 0.0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(repo_cfg.image_bytes));
  std::fprintf(f, "  \"change_probability\": 0.10,\n");
  std::fprintf(f, "  \"host_hash_gbps\": %.3f,\n",
               host_stats.backup_bandwidth_gbps);
  std::fprintf(f, "  \"device_hash_gbps\": %.3f,\n",
               device_stats.backup_bandwidth_gbps);
  std::fprintf(f, "  \"speedup_device_over_host\": %.3f,\n", speedup);
  std::fprintf(f, "  \"host_hashing_seconds\": %.6f,\n",
               host_stats.hashing_seconds);
  std::fprintf(f, "  \"device_hashing_seconds\": %.6f,\n",
               device_stats.hashing_seconds);
  std::fprintf(f,
               "  \"pipeline\": {\"reader_s\": %.6f, \"transfer_s\": %.6f, "
               "\"kernel_s\": %.6f, \"fingerprint_s\": %.6f, "
               "\"store_s\": %.6f,\n",
               m.reader, m.transfer, m.kernel, m.fingerprint, m.store);
  std::fprintf(f,
               "    \"virtual_seconds\": %.6f, \"serialized_seconds\": %.6f, "
               "\"overlap_factor\": %.3f}\n",
               pipe.virtual_seconds, pipe.serialized_seconds, overlap);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("host-hash backup:   %6.2f Gbps (hash stage %.1f ms)\n",
              host_stats.backup_bandwidth_gbps,
              host_stats.hashing_seconds * 1e3);
  std::printf("device-hash backup: %6.2f Gbps (hash folded into pipeline)\n",
              device_stats.backup_bandwidth_gbps);
  std::printf("speedup: %.2fx | pipeline overlap %.2fx "
              "(fingerprint %.1f ms/buffer overlaps next H2D %.1f ms)\n",
              speedup, overlap, m.fingerprint * 1e3, m.transfer * 1e3);
  std::printf("-> %s\n", path.c_str());
  return 0;
}

// --- --index_json mode ------------------------------------------------------

// One backend's replay of (base insert stream, snapshot probe stream).
struct IndexRun {
  double snapshot_seconds = 0;  // modelled index time of the snapshot pass
  double total_seconds = 0;
  std::uint64_t duplicates = 0;  // snapshot probes answered from the index
  dedup::IndexStats stats;
};

int run_index_json(const std::string& path) {
  using namespace shredder::backup;
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 64ull << 20;
  // Enough similarity segments that a 0.75 change probability reliably
  // leaves some unchanged (duplicate) runs.
  repo_cfg.segment_bytes = 1ull << 20;
  repo_cfg.seed = 77;
  ImageRepository repo(repo_cfg);
  // The fig18 operating point that puts the baseline index on the critical
  // path: 4 KB chunks (fixed-size here — the bench isolates the index, not
  // the chunker).
  const std::size_t kChunk = 4096;

  const auto digests_of = [&](const ByteVec& image) {
    std::vector<dedup::ChunkDigest> out;
    const ByteSpan data = as_bytes(image);
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      out.push_back(dedup::ChunkHasher::hash(
          data.subspan(off, std::min(kChunk, data.size() - off))));
    }
    return out;
  };
  const auto base = digests_of(repo.snapshot(0.0, 1));
  // Low similarity: three quarters of the segments changed since the base.
  const auto snap_low = digests_of(repo.snapshot(0.75, 2));
  const auto snap_high = digests_of(repo.snapshot(0.10, 3));

  const auto replay = [&](dedup::IndexKind kind,
                          const std::vector<dedup::ChunkDigest>& snap) {
    dedup::IndexConfig cfg;
    cfg.kind = kind;
    // Baseline probe path at the backup server's §7.3 calibration — the
    // operating point whose erosion the sparse index removes.
    const BackupCostModel backup_costs;
    cfg.costs.probe_s = backup_costs.index_probe_s;
    cfg.costs.insert_s = backup_costs.index_insert_s;
    auto index = dedup::make_index(cfg);
    std::uint64_t off = 0;
    for (const auto& d : base) {
      index->lookup_or_insert(d, {off, kChunk}, /*stream=*/0);
      off += kChunk;
    }
    const double before = index->virtual_seconds();
    IndexRun run;
    for (const auto& d : snap) {
      if (index->lookup_or_insert(d, {off, kChunk}, /*stream=*/1)
              .has_value()) {
        ++run.duplicates;
      }
      off += kChunk;
    }
    run.stats = index->stats();
    run.total_seconds = run.stats.virtual_seconds;
    run.snapshot_seconds = run.total_seconds - before;
    return run;
  };

  const auto base_low = replay(dedup::IndexKind::kPaperBaseline, snap_low);
  const auto sparse_low = replay(dedup::IndexKind::kSparse, snap_low);
  const auto base_high = replay(dedup::IndexKind::kPaperBaseline, snap_high);
  const auto sparse_high = replay(dedup::IndexKind::kSparse, snap_high);
  const double speedup_low =
      base_low.snapshot_seconds / sparse_low.snapshot_seconds;
  const double speedup_high =
      base_high.snapshot_seconds / sparse_high.snapshot_seconds;
  const double n_probes = static_cast<double>(snap_low.size());
  if (base_low.duplicates != sparse_low.duplicates ||
      base_high.duplicates != sparse_high.duplicates ||
      base_low.duplicates == 0) {
    std::fprintf(stderr,
                 "index bench: backend dedup decisions diverged or the "
                 "workload has no duplicates\n");
    return 1;
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(repo_cfg.image_bytes));
  std::fprintf(f, "  \"chunk_bytes\": %zu,\n", kChunk);
  std::fprintf(f, "  \"snapshot_probes\": %zu,\n", snap_low.size());
  std::fprintf(f,
               "  \"low_similarity\": {\"change_probability\": 0.75,\n"
               "    \"duplicate_probes\": %llu,\n"
               "    \"baseline_seconds\": %.6f, \"sparse_seconds\": %.6f,\n"
               "    \"baseline_us_per_probe\": %.3f, "
               "\"sparse_us_per_probe\": %.3f,\n"
               "    \"sparse_flash_reads\": %llu, "
               "\"sparse_cache_hits\": %llu,\n"
               "    \"speedup_sparse_over_baseline\": %.3f},\n",
               static_cast<unsigned long long>(sparse_low.duplicates),
               base_low.snapshot_seconds, sparse_low.snapshot_seconds,
               base_low.snapshot_seconds / n_probes * 1e6,
               sparse_low.snapshot_seconds / n_probes * 1e6,
               static_cast<unsigned long long>(sparse_low.stats.flash_reads),
               static_cast<unsigned long long>(sparse_low.stats.cache_hits),
               speedup_low);
  std::fprintf(f,
               "  \"high_similarity\": {\"change_probability\": 0.10,\n"
               "    \"duplicate_probes\": %llu,\n"
               "    \"baseline_seconds\": %.6f, \"sparse_seconds\": %.6f,\n"
               "    \"speedup_sparse_over_baseline\": %.3f}\n",
               static_cast<unsigned long long>(sparse_high.duplicates),
               base_high.snapshot_seconds, sparse_high.snapshot_seconds,
               speedup_high);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("index probe path, %zu probes of a 64 MiB image at 4 KB "
              "chunks:\n",
              snap_low.size());
  std::printf(
      "  low similarity (p=0.75): baseline %7.2f ms   sparse %7.2f ms "
      " -> %.1fx (%llu flash reads, %llu cache hits)\n",
      base_low.snapshot_seconds * 1e3, sparse_low.snapshot_seconds * 1e3,
      speedup_low,
      static_cast<unsigned long long>(sparse_low.stats.flash_reads),
      static_cast<unsigned long long>(sparse_low.stats.cache_hits));
  std::printf(
      "  high similarity (p=0.10): baseline %7.2f ms   sparse %7.2f ms "
      " -> %.1fx\n",
      base_high.snapshot_seconds * 1e3, sparse_high.snapshot_seconds * 1e3,
      speedup_high);
  std::printf("-> %s\n", path.c_str());
  if (speedup_low < 3.0) {
    std::fprintf(stderr,
                 "index bench: sparse speedup %.2fx below the 3x bar at the "
                 "low-similarity operating point\n",
                 speedup_low);
    return 1;
  }
  return 0;
}

// --- --agent_json mode ------------------------------------------------------

int run_agent_json(const std::string& path) {
  using namespace shredder::backup;
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 64ull << 20;
  repo_cfg.segment_bytes = 1ull << 20;
  repo_cfg.seed = 4711;
  ImageRepository repo(repo_cfg);

  // The fig18-style small-chunk operating point the wire protocol targets:
  // ~2 KB expected chunks, on-device hashing and the sparse index so the
  // hash and probe stages are already off the critical path — what remains
  // of index+transfer is the link framing itself.
  BackupServerConfig cfg;
  cfg.backend = ChunkerBackend::kShredderGpu;
  cfg.chunker.window = 48;
  cfg.chunker.mask_bits = 11;  // ~2 KB chunks
  cfg.chunker.marker = 0x78;
  cfg.chunker.min_size = 1024;
  cfg.chunker.max_size = 8 * 1024;
  cfg.shredder.buffer_bytes = 8ull << 20;
  cfg.fingerprint_on_device = true;
  cfg.index.kind = dedup::IndexKind::kSparse;

  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.05, 2);  // duplicate-heavy successor

  BackupServer server(cfg);
  BackupAgent agent;
  server.backup_image("base", as_bytes(base), repo, agent);
  const std::string snap_id = "snap";
  const BackupRunStats batched =
      server.backup_image(snap_id, as_bytes(snap), repo, agent);
  if (!batched.verified) {
    std::fprintf(stderr, "agent bench: backup verification failed\n");
    return 1;
  }
  // The paper's per-chunk framing, priced over the same snapshot: the
  // dedup decisions, index cost and every other stage are identical, only
  // the link stage changes.
  BackupRunStats per_chunk = batched;
  const LinkStats price = per_chunk_link_price(
      cfg.costs.link, batched.chunks, batched.unique_bytes, snap_id.size());
  per_chunk.link_seconds = price.virtual_seconds;
  per_chunk.link_messages = price.messages;
  per_chunk.wire_bytes = price.wire_bytes;
  per_chunk.index_transfer_seconds =
      per_chunk.index_seconds + per_chunk.link_seconds;
  per_chunk.virtual_seconds =
      std::max({per_chunk.generation_seconds, per_chunk.chunking_seconds,
                per_chunk.hashing_seconds, per_chunk.index_transfer_seconds});
  per_chunk.backup_bandwidth_gbps = static_cast<double>(per_chunk.bytes) *
                                    8.0 / (per_chunk.virtual_seconds * 1e9);
  const double link_speedup = batched.link_seconds > 0
                                  ? per_chunk.link_seconds / batched.link_seconds
                                  : 0.0;
  const double e2e_speedup = per_chunk.backup_bandwidth_gbps > 0
                                 ? batched.backup_bandwidth_gbps /
                                       per_chunk.backup_bandwidth_gbps
                                 : 0.0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(repo_cfg.image_bytes));
  std::fprintf(f, "  \"change_probability\": 0.05,\n");
  std::fprintf(f, "  \"expected_chunk_bytes\": 2048,\n");
  std::fprintf(f, "  \"chunks\": %llu,\n",
               static_cast<unsigned long long>(batched.chunks));
  std::fprintf(f, "  \"duplicate_chunks\": %llu,\n",
               static_cast<unsigned long long>(batched.duplicate_chunks));
  std::fprintf(f,
               "  \"per_chunk\": {\"link_seconds\": %.6f, \"messages\": %llu, "
               "\"wire_bytes\": %llu, \"backup_gbps\": %.3f},\n",
               per_chunk.link_seconds,
               static_cast<unsigned long long>(per_chunk.link_messages),
               static_cast<unsigned long long>(per_chunk.wire_bytes),
               per_chunk.backup_bandwidth_gbps);
  std::fprintf(f,
               "  \"extent_batch\": {\"link_seconds\": %.6f, "
               "\"messages\": %llu, \"extents\": %llu, "
               "\"wire_bytes\": %llu, \"backup_gbps\": %.3f},\n",
               batched.link_seconds,
               static_cast<unsigned long long>(batched.link_messages),
               static_cast<unsigned long long>(batched.link_extents),
               static_cast<unsigned long long>(batched.wire_bytes),
               batched.backup_bandwidth_gbps);
  std::fprintf(f, "  \"link_speedup_batch_over_per_chunk\": %.3f,\n",
               link_speedup);
  std::fprintf(f, "  \"e2e_speedup_batch_over_per_chunk\": %.3f\n",
               e2e_speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("backup link stage, %llu chunks (~2 KB) at 5%% change:\n",
              static_cast<unsigned long long>(batched.chunks));
  std::printf("  per-chunk framing:  %8.2f ms  (%llu messages, %s on wire) "
              "-> %.2f Gbps end-to-end\n",
              per_chunk.link_seconds * 1e3,
              static_cast<unsigned long long>(per_chunk.link_messages),
              human_bytes(per_chunk.wire_bytes).c_str(),
              per_chunk.backup_bandwidth_gbps);
  std::printf("  extent batches:     %8.2f ms  (%llu messages, %llu extents, "
              "%s on wire) -> %.2f Gbps end-to-end\n",
              batched.link_seconds * 1e3,
              static_cast<unsigned long long>(batched.link_messages),
              static_cast<unsigned long long>(batched.link_extents),
              human_bytes(batched.wire_bytes).c_str(),
              batched.backup_bandwidth_gbps);
  std::printf("link-stage speedup: %.1fx | end-to-end: %.2fx  -> %s\n",
              link_speedup, e2e_speedup, path.c_str());
  if (link_speedup < 1.5) {
    std::fprintf(stderr,
                 "agent bench: link speedup %.2fx below the 1.5x bar at the "
                 "2 KB duplicate-heavy operating point\n",
                 link_speedup);
    return 1;
  }
  return 0;
}

// --- --transport_json mode --------------------------------------------------

int run_transport_json(const std::string& path) {
  using namespace shredder::backup;
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 64ull << 20;
  repo_cfg.segment_bytes = 1ull << 20;
  repo_cfg.seed = 4711;
  ImageRepository repo(repo_cfg);

  // Same duplicate-heavy ~2 KB operating point as the agent bench; the
  // variable here is the wire, not the chunking. 64 KiB frames give the
  // fault schedule enough wire messages to bite at the 1% point, and
  // max_payload_retx = 2 hands persistent payload losses to the digest-
  // keyed repair protocol so the high-loss rows exercise it.
  auto server_config = [&] {
    BackupServerConfig cfg;
    cfg.backend = ChunkerBackend::kShredderGpu;
    cfg.chunker.window = 48;
    cfg.chunker.mask_bits = 11;  // ~2 KB chunks
    cfg.chunker.marker = 0x78;
    cfg.chunker.min_size = 1024;
    cfg.chunker.max_size = 8 * 1024;
    cfg.shredder.buffer_bytes = 8ull << 20;
    cfg.fingerprint_on_device = true;
    cfg.index.kind = dedup::IndexKind::kSparse;
    cfg.transport.max_frame_bytes = 64 * 1024;
    cfg.transport.max_payload_retx = 2;
    return cfg;
  };

  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.25, 2);  // mixed dup/unique successor

  const double losses[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  struct Point {
    double loss = 0;
    shredder::backup::TransportStats ts;
    bool degraded = false;
  };
  std::vector<Point> points;
  for (const double loss : losses) {
    auto cfg = server_config();
    cfg.transport.faults.drop = loss;
    if (loss > 0) {  // a lossy wire reorders and duplicates a little too
      cfg.transport.faults.reorder = 0.10;
      // ~2 frame service times of jitter: mild reordering that the sack
      // machinery should absorb without spurious fast retransmits.
      cfg.transport.faults.reorder_jitter_s = 100e-6;
      cfg.transport.faults.duplicate = 0.02;
    }
    cfg.transport.faults.seed = 29;
    BackupServer server(cfg);
    BackupAgent agent;
    server.backup_image("base", as_bytes(base), repo, agent);
    const auto stats = server.backup_image("snap", as_bytes(snap), repo, agent);
    if (!stats.verified) {
      std::fprintf(stderr,
                   "transport bench: verification failed at loss %.2f\n",
                   loss);
      return 1;
    }
    points.push_back({loss, stats.transport, stats.link_degraded});
  }
  const double lossless_goodput = points.front().ts.goodput_bps;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(repo_cfg.image_bytes));
  std::fprintf(f, "  \"change_probability\": 0.25,\n");
  std::fprintf(f, "  \"expected_chunk_bytes\": 2048,\n");
  std::fprintf(f, "  \"max_frame_bytes\": 65536,\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(
        f,
        "    {\"loss\": %.2f, \"goodput_gbps\": %.3f, "
        "\"goodput_vs_lossless\": %.3f, \"link_seconds\": %.6f, "
        "\"frames_sent\": %llu, \"retransmits\": %llu, "
        "\"fast_retransmits\": %llu, \"rto_fires\": %llu, "
        "\"payloads_stripped\": %llu, \"repair_frames\": %llu, "
        "\"window_stall_seconds\": %.6f, \"degraded\": %s}%s\n",
        p.loss, p.ts.goodput_bps / 1e9,
        lossless_goodput > 0 ? p.ts.goodput_bps / lossless_goodput : 0.0,
        p.ts.virtual_seconds,
        static_cast<unsigned long long>(p.ts.frames_sent),
        static_cast<unsigned long long>(p.ts.retransmits),
        static_cast<unsigned long long>(p.ts.fast_retransmits),
        static_cast<unsigned long long>(p.ts.rto_fires),
        static_cast<unsigned long long>(p.ts.payloads_stripped),
        static_cast<unsigned long long>(p.ts.repair_frames),
        p.ts.window_stall_seconds, p.degraded ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("backup transport loss sweep (%s image, ~2 KB chunks):\n",
              human_bytes(repo_cfg.image_bytes).c_str());
  std::printf("  loss   goodput    vs lossless  retx (fast/rto)  repairs  "
              "degraded\n");
  for (const auto& p : points) {
    std::printf("  %3.0f%%  %7.2f Gbps   %5.2fx     %5llu (%llu/%llu)    "
                "%5llu   %s\n",
                p.loss * 100, p.ts.goodput_bps / 1e9,
                lossless_goodput > 0 ? p.ts.goodput_bps / lossless_goodput
                                     : 0.0,
                static_cast<unsigned long long>(p.ts.retransmits),
                static_cast<unsigned long long>(p.ts.fast_retransmits),
                static_cast<unsigned long long>(p.ts.rto_fires),
                static_cast<unsigned long long>(p.ts.repair_frames),
                p.degraded ? "yes" : "no");
  }
  std::printf("-> %s\n", path.c_str());
  const double ratio =
      lossless_goodput > 0 ? points[1].ts.goodput_bps / lossless_goodput : 0.0;
  if (ratio < 0.7) {
    std::fprintf(stderr,
                 "transport bench: goodput at 1%% loss is %.2fx lossless, "
                 "below the 0.7x bar — recovery is timeout-bound\n",
                 ratio);
    return 1;
  }
  return 0;
}

// --- --retention_json mode --------------------------------------------------

int run_retention_json(const std::string& path) {
  using namespace shredder::backup;
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 32ull << 20;
  repo_cfg.segment_bytes = 512ull << 10;
  repo_cfg.seed = 9091;
  ImageRepository repo(repo_cfg);

  // Churn workload: every snapshot replaces ~95% of its segments with
  // snapshot-unique content, so deleting half the snapshots strands close to
  // half the store — the operating point where retention has to earn its
  // keep. The shared 5% (master segments) exercises the refcount walk: those
  // chunks must survive every delete.
  const int snapshots = 8;
  const double change_prob = 0.95;

  const auto store = std::make_shared<shredder::dedup::ChunkStore>(
      /*deferred_reclaim=*/true);
  BackupServerConfig cfg;
  cfg.backend = ChunkerBackend::kPthreadsCpu;
  cfg.chunker.window = 48;
  cfg.chunker.mask_bits = 11;  // ~2 KB chunks, many entry-log containers
  cfg.chunker.marker = 0x78;
  cfg.chunker.min_size = 1024;
  cfg.chunker.max_size = 8 * 1024;
  cfg.index.kind = shredder::dedup::IndexKind::kSparse;
  cfg.store = store;
  BackupServer server(cfg);
  BackupAgent agent;

  std::vector<std::string> ids;
  std::vector<ByteVec> images;
  for (int i = 1; i <= snapshots; ++i) {
    ids.push_back("snap" + std::to_string(i));
    images.push_back(repo.snapshot(change_prob, static_cast<std::uint64_t>(i)));
    const auto stats =
        server.backup_image(ids.back(), as_bytes(images.back()), repo, agent);
    if (!stats.verified) {
      std::fprintf(stderr, "retention bench: backup of %s failed to verify\n",
                   ids.back().c_str());
      return 1;
    }
  }

  // Snapshot the manifests before any delete so the dead-digest set is still
  // reachable, then split the digest universe into survivors and unshared
  // dead (shared chunks stay probe-able forever).
  std::vector<std::vector<shredder::dedup::ChunkDigest>> manifests;
  for (const auto& id : ids) {
    manifests.push_back(server.retention().manifests().digests("", id));
  }
  std::unordered_set<shredder::dedup::ChunkDigest,
                     shredder::dedup::ChunkDigestHash>
      surviving;
  for (int i = 0; i < snapshots; i += 2) {
    surviving.insert(manifests[i].begin(), manifests[i].end());
  }
  std::unordered_set<shredder::dedup::ChunkDigest,
                     shredder::dedup::ChunkDigestHash>
      dead;
  for (int i = 1; i < snapshots; i += 2) {
    for (const auto& d : manifests[i]) {
      if (surviving.find(d) == surviving.end()) dead.insert(d);
    }
  }

  const auto occ_full = store->occupancy();
  std::uint64_t bytes_zeroed = 0, chunks_released = 0;
  double delete_seconds = 0;
  for (int i = 1; i < snapshots; i += 2) {
    const auto ds = server.delete_image(ids[i]);
    bytes_zeroed += ds.bytes_zeroed;
    chunks_released += ds.chunks_released;
    delete_seconds += ds.virtual_seconds;
    agent.delete_image(ids[i]);
  }

  const auto gc = server.gc();
  const auto occ_after = store->occupancy();
  const double reclaim_ratio =
      bytes_zeroed > 0 ? static_cast<double>(gc.bytes_freed) / bytes_zeroed
                       : 0.0;
  const double store_shrink =
      occ_full.bytes > 0
          ? 1.0 - static_cast<double>(occ_after.bytes) / occ_full.bytes
          : 0.0;

  // Record every surviving (and dead) probe decision, compact, re-probe:
  // placement depends only on (bucket, signature), so compaction must be
  // invisible to lookups — identical hit/miss, offset and size.
  struct Probe {
    bool hit;
    std::uint64_t offset, size;
  };
  auto probe_all = [&](const std::unordered_set<
                       shredder::dedup::ChunkDigest,
                       shredder::dedup::ChunkDigestHash>& set) {
    std::vector<Probe> out;
    out.reserve(set.size());
    for (const auto& d : set) {
      const auto loc = server.index().lookup(d);
      out.push_back({loc.has_value(), loc ? loc->store_offset : 0,
                     loc ? loc->size : 0});
    }
    return out;
  };
  const auto live_before = probe_all(surviving);
  const auto cs = server.compact_index();
  const auto live_after = probe_all(surviving);
  bool probes_identical = true;
  for (std::size_t i = 0; i < live_before.size(); ++i) {
    if (live_before[i].hit != live_after[i].hit ||
        live_before[i].offset != live_after[i].offset ||
        live_before[i].size != live_after[i].size) {
      probes_identical = false;
      break;
    }
  }
  bool dead_missing = true;
  for (const auto& d : dead) {
    if (server.index().lookup(d).has_value()) {
      dead_missing = false;
      break;
    }
  }
  const double log_shrink =
      cs.index.entries_before > 0
          ? 1.0 - static_cast<double>(cs.index.entries_after) /
                      cs.index.entries_before
          : 0.0;

  bool survivors_identical = true;
  for (int i = 0; i < snapshots; i += 2) {
    if (agent.recreate(ids[i]) != images[i]) {
      survivors_identical = false;
      break;
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(repo_cfg.image_bytes));
  std::fprintf(f, "  \"snapshots\": %d,\n", snapshots);
  std::fprintf(f, "  \"deleted\": %d,\n", snapshots / 2);
  std::fprintf(f, "  \"change_probability\": %.2f,\n", change_prob);
  std::fprintf(f, "  \"chunks_released\": %llu,\n",
               static_cast<unsigned long long>(chunks_released));
  std::fprintf(f, "  \"bytes_zeroed\": %llu,\n",
               static_cast<unsigned long long>(bytes_zeroed));
  std::fprintf(f,
               "  \"gc\": {\"epoch\": %llu, \"chunks_freed\": %llu, "
               "\"bytes_freed\": %llu, \"kept_pinned\": %llu, "
               "\"resurrected\": %llu},\n",
               static_cast<unsigned long long>(gc.epoch),
               static_cast<unsigned long long>(gc.chunks_freed),
               static_cast<unsigned long long>(gc.bytes_freed),
               static_cast<unsigned long long>(gc.kept_pinned),
               static_cast<unsigned long long>(gc.resurrected));
  std::fprintf(f, "  \"store_bytes_before\": %llu,\n",
               static_cast<unsigned long long>(occ_full.bytes));
  std::fprintf(f, "  \"store_bytes_after\": %llu,\n",
               static_cast<unsigned long long>(occ_after.bytes));
  std::fprintf(f, "  \"store_shrink\": %.3f,\n", store_shrink);
  std::fprintf(f, "  \"dead_bytes_reclaimed\": %.3f,\n", reclaim_ratio);
  std::fprintf(f,
               "  \"compaction\": {\"entries_before\": %llu, "
               "\"entries_after\": %llu, \"dropped\": %llu, "
               "\"containers_scanned\": %llu, \"containers_rewritten\": %llu, "
               "\"manifest_records_dropped\": %llu},\n",
               static_cast<unsigned long long>(cs.index.entries_before),
               static_cast<unsigned long long>(cs.index.entries_after),
               static_cast<unsigned long long>(cs.index.dropped),
               static_cast<unsigned long long>(cs.index.containers_scanned),
               static_cast<unsigned long long>(cs.index.containers_rewritten),
               static_cast<unsigned long long>(cs.manifest.dropped_records));
  std::fprintf(f, "  \"log_shrink\": %.3f,\n", log_shrink);
  std::fprintf(f,
               "  \"retention_seconds\": {\"delete\": %.6f, \"gc\": %.6f, "
               "\"compact\": %.6f},\n",
               delete_seconds, gc.virtual_seconds, cs.virtual_seconds);
  std::fprintf(f, "  \"survivors_bit_identical\": %s,\n",
               survivors_identical ? "true" : "false");
  std::fprintf(f, "  \"probe_decisions_identical\": %s,\n",
               probes_identical ? "true" : "false");
  std::fprintf(f, "  \"dead_digests_miss\": %s\n",
               dead_missing ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("retention churn, %d x %s snapshots at %.0f%% change, "
              "%d deleted:\n",
              snapshots, human_bytes(repo_cfg.image_bytes).c_str(),
              change_prob * 100, snapshots / 2);
  std::printf("  store:  %s -> %s  (%.1f%% reclaimed, %.1f%% of dead bytes "
              "freed by GC)\n",
              human_bytes(occ_full.bytes).c_str(),
              human_bytes(occ_after.bytes).c_str(), store_shrink * 100,
              reclaim_ratio * 100);
  std::printf("  index:  %llu -> %llu log entries  (%.1f%% compacted, "
              "%llu/%llu containers rewritten)\n",
              static_cast<unsigned long long>(cs.index.entries_before),
              static_cast<unsigned long long>(cs.index.entries_after),
              log_shrink * 100,
              static_cast<unsigned long long>(cs.index.containers_rewritten),
              static_cast<unsigned long long>(cs.index.containers_scanned));
  std::printf("  checks: survivors %s, probe decisions %s, dead digests %s\n",
              survivors_identical ? "bit-identical" : "CORRUPT",
              probes_identical ? "bit-identical" : "CHANGED",
              dead_missing ? "miss" : "STILL PRESENT");
  std::printf("  cost:   delete %.1f ms, gc %.1f ms, compact %.1f ms "
              "(virtual) -> %s\n",
              delete_seconds * 1e3, gc.virtual_seconds * 1e3,
              cs.virtual_seconds * 1e3, path.c_str());

  if (!survivors_identical) {
    std::fprintf(stderr,
                 "retention bench: a surviving image no longer recreates "
                 "bit-identically after delete+GC+compaction\n");
    return 1;
  }
  if (!probes_identical || !dead_missing) {
    std::fprintf(stderr,
                 "retention bench: sparse-index probe decisions changed "
                 "across compaction\n");
    return 1;
  }
  if (reclaim_ratio < 0.8) {
    std::fprintf(stderr,
                 "retention bench: GC reclaimed %.1f%% of dead bytes, below "
                 "the 80%% bar\n",
                 reclaim_ratio * 100);
    return 1;
  }
  if (store_shrink < 0.4 || log_shrink < 0.4) {
    std::fprintf(stderr,
                 "retention bench: store shrank %.1f%%, entry log %.1f%% — "
                 "both must shrink >= 40%% after deleting half the "
                 "snapshots\n",
                 store_shrink * 100, log_shrink * 100);
    return 1;
  }
  return 0;
}

// --- --obs_json mode --------------------------------------------------------

// Relative disagreement of a traced busy time vs the timeline's own
// accounting; exact-zero pairs agree perfectly.
double busy_rel_err(double traced, double reference) {
  if (reference == 0.0) return traced == 0.0 ? 0.0 : 1.0;
  return std::abs(traced - reference) / reference;
}

int run_obs_json(const std::string& path, bool smoke) {
  using namespace shredder::backup;

  // Part 1 — the "compiled in but disabled" bar: the same pipeline, once
  // with no registry and once with a disabled one attached. The hooks are
  // per buffer, so the honest expectation is noise-level overhead; the bar
  // catches anyone moving them into a per-byte loop, which slows every run.
  // On a shared machine one run varies by ~10% and interference only adds
  // time, so each variant's verdict is its best run over many passes
  // interleaved with the other's. Two instances can also differ by ~1% by
  // where their buffers land, so every round builds a fresh pair behind
  // random-size spacers, in alternating order, and runs each kRoundPasses
  // times in plain-instr-instr-plain order (mirrored every other round).
  // The device is simulated on one host thread so the stage threads that
  // carry the hooks do not compete with a device pool for cores.
  const std::size_t overhead_bytes = 16u << 20;
  const ByteVec overhead_input = random_bytes(overhead_bytes, 1234);
  core::ShredderConfig plain_cfg;
  plain_cfg.chunker = default_config();
  plain_cfg.buffer_bytes = 1u << 20;
  plain_cfg.sim_threads = 1;
  obs::Registry disabled_reg;
  disabled_reg.set_enabled(false);
  auto instr_cfg = plain_cfg;
  instr_cfg.registry = &disabled_reg;
  constexpr int kRoundPasses = 8;
  const int rounds = smoke ? 11 : 15;
  SplitMix64 layout_rng(99);
  const auto spacer = [&] {
    return std::make_unique_for_overwrite<std::uint8_t[]>(
        layout_rng.next_below(1u << 20) + 1);
  };
  double best_plain = 1e300, best_instr = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const bool mirrored = r % 2 == 1;
    std::optional<core::Shredder> plain, instrumented;
    const auto spacer_a = spacer();
    if (mirrored) {
      instrumented.emplace(instr_cfg);
    } else {
      plain.emplace(plain_cfg);
    }
    const auto spacer_b = spacer();
    if (mirrored) {
      plain.emplace(plain_cfg);
    } else {
      instrumented.emplace(instr_cfg);
    }
    plain->run(as_bytes(overhead_input));  // warm up both
    instrumented->run(as_bytes(overhead_input));
    for (int k = 0; k < 2 * kRoundPasses; ++k) {
      const bool instr_turn = (k % 4 == 1 || k % 4 == 2) != mirrored;
      Stopwatch w;
      (instr_turn ? *instrumented : *plain).run(as_bytes(overhead_input));
      double& best = instr_turn ? best_instr : best_plain;
      best = std::min(best, w.elapsed_seconds());
    }
  }
  const double overhead_pct = (best_instr / best_plain - 1.0) * 100.0;

  // Part 2 — multi-tenant service run with metrics + tracing on: N tenant
  // streams through one device, trace exported for Perfetto, and the
  // exported per-engine busy time cross-checked against the timeline's own
  // engine_busy accounting.
  obs::Registry svc_reg;
  obs::Tracer svc_tracer;
  service::ServiceConfig cfg;
  cfg.buffer_bytes = smoke ? (256u << 10) : (512u << 10);
  cfg.fingerprint_on_device = true;  // fingerprint-kernel spans too
  cfg.registry = &svc_reg;
  cfg.tracer = &svc_tracer;
  const std::size_t n_tenants = smoke ? 4 : 16;
  cfg.max_tenants = n_tenants;
  const std::size_t per_tenant = smoke ? (512u << 10) : (2u << 20);
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < n_tenants; ++k) {
    payloads.push_back(random_bytes(per_tenant, 7100 + k));
  }
  service::ChunkingService svc(cfg);
  {
    std::vector<service::ChunkingService::StreamId> ids;
    for (std::size_t k = 0; k < n_tenants; ++k) ids.push_back(svc.open());
    std::vector<std::thread> producers;
    for (std::size_t k = 0; k < n_tenants; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[k], as_bytes(payloads[k]));
        svc.finish(ids[k]);
      });
    }
    for (auto& t : producers) t.join();
    for (const auto id : ids) svc.wait(id);
  }
  const auto svc_report = svc.shutdown();
  const double svc_err = std::max(
      {busy_rel_err(svc_tracer.track_busy("engine/h2d"),
                    svc_report.h2d_busy_seconds),
       busy_rel_err(svc_tracer.track_busy("engine/compute"),
                    svc_report.compute_busy_seconds),
       busy_rel_err(svc_tracer.track_busy("engine/d2h"),
                    svc_report.d2h_busy_seconds)});
  const std::string svc_trace_path = "TRACE_obs_service.json";
  svc_tracer.write_json(svc_trace_path);

  // Part 3 — backup over a 1%-loss transport, chunked through a shared
  // service so one trace carries the whole story: engine spans, per-tenant
  // buffers, scheduler series, and the wire's frame/retransmit/repair
  // lifecycle on the transport tracks.
  obs::Registry wire_reg;
  obs::Tracer wire_tracer;
  service::ServiceConfig scv2;
  scv2.chunker.window = 48;
  scv2.chunker.mask_bits = 11;  // ~2 KB chunks: enough frames for 1% loss
  scv2.chunker.marker = 0x78;
  scv2.chunker.min_size = 1024;
  scv2.chunker.max_size = 8 * 1024;
  scv2.buffer_bytes = smoke ? (512u << 10) : (1u << 20);
  scv2.fingerprint_on_device = true;
  scv2.max_tenants = 2;
  scv2.registry = &wire_reg;
  scv2.tracer = &wire_tracer;
  auto wire_svc = std::make_shared<service::ChunkingService>(scv2);

  BackupServerConfig bcfg;
  bcfg.backend = ChunkerBackend::kSharedService;
  bcfg.service = wire_svc;
  bcfg.chunker = scv2.chunker;
  bcfg.fingerprint_on_device = true;
  bcfg.index.kind = dedup::IndexKind::kSparse;
  bcfg.transport.max_frame_bytes = 64 * 1024;
  bcfg.transport.max_payload_retx = 2;
  bcfg.transport.faults.drop = 0.01;
  bcfg.transport.faults.reorder = 0.10;
  bcfg.transport.faults.reorder_jitter_s = 100e-6;
  bcfg.transport.faults.duplicate = 0.02;
  bcfg.transport.faults.seed = 29;
  bcfg.registry = &wire_reg;
  bcfg.tracer = &wire_tracer;

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = smoke ? (4ull << 20) : (8ull << 20);
  repo_cfg.segment_bytes = 256ull << 10;
  repo_cfg.seed = 4711;
  ImageRepository repo(repo_cfg);
  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.25, 2);

  BackupServer server(bcfg);
  BackupAgent agent;
  server.backup_image("base", as_bytes(base), repo, agent);
  const auto wire_stats = server.backup_image("snap", as_bytes(snap), repo,
                                              agent);
  if (!wire_stats.verified) {
    std::fprintf(stderr, "obs bench: lossy backup verification failed\n");
    return 1;
  }
  const auto wire_report = wire_svc->shutdown();
  const double wire_err = std::max(
      {busy_rel_err(wire_tracer.track_busy("engine/h2d"),
                    wire_report.h2d_busy_seconds),
       busy_rel_err(wire_tracer.track_busy("engine/compute"),
                    wire_report.compute_busy_seconds),
       busy_rel_err(wire_tracer.track_busy("engine/d2h"),
                    wire_report.d2h_busy_seconds)});
  const std::string wire_trace_path = "TRACE_obs_transport.json";
  wire_tracer.write_json(wire_trace_path);
  const std::uint64_t wire_recoveries =
      wire_stats.transport.retransmits + wire_stats.transport.repair_frames;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"disabled_overhead_pct\": %.3f,\n", overhead_pct);
  std::fprintf(f, "  \"overhead_input_bytes\": %llu,\n",
               static_cast<unsigned long long>(overhead_bytes));
  std::fprintf(
      f,
      "  \"service\": {\"tenants\": %zu, \"buffers\": %llu, "
      "\"trace_events\": %zu, \"engine_busy_max_rel_err\": %.6f, "
      "\"trace_path\": \"%s\"},\n",
      n_tenants, static_cast<unsigned long long>(svc_report.n_buffers),
      svc_tracer.event_count(), svc_err, svc_trace_path.c_str());
  std::fprintf(
      f,
      "  \"transport\": {\"loss\": 0.01, \"retransmits\": %llu, "
      "\"repair_frames\": %llu, \"trace_events\": %zu, "
      "\"engine_busy_max_rel_err\": %.6f, \"trace_path\": \"%s\"},\n",
      static_cast<unsigned long long>(wire_stats.transport.retransmits),
      static_cast<unsigned long long>(wire_stats.transport.repair_frames),
      wire_tracer.event_count(), wire_err, wire_trace_path.c_str());
  // The registry's own export, verbatim — the machine-readable face of the
  // service run's metrics (docs/observability.md).
  std::fprintf(f, "  \"service_metrics\": %s\n", svc_reg.to_json().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("obs overhead (registry disabled): %+.2f%%  "
              "(plain %.3f ms vs instrumented %.3f ms, best of %d each)\n",
              overhead_pct, best_plain * 1e3, best_instr * 1e3,
              rounds * kRoundPasses);
  std::printf("service run:   %zu tenants, %llu buffers, %zu trace events, "
              "engine-busy err %.4f%% -> %s\n",
              n_tenants, static_cast<unsigned long long>(svc_report.n_buffers),
              svc_tracer.event_count(), svc_err * 100, svc_trace_path.c_str());
  std::printf("transport run: 1%% loss, %llu retransmits, %llu repairs, "
              "%zu trace events, engine-busy err %.4f%% -> %s\n",
              static_cast<unsigned long long>(wire_stats.transport.retransmits),
              static_cast<unsigned long long>(
                  wire_stats.transport.repair_frames),
              wire_tracer.event_count(), wire_err * 100,
              wire_trace_path.c_str());
  std::printf("-> %s\n", path.c_str());

  if (overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "obs bench: disabled-registry overhead %.2f%% exceeds the "
                 "2%% bar\n",
                 overhead_pct);
    return 1;
  }
  if (svc_err > 0.01 || wire_err > 0.01) {
    std::fprintf(stderr,
                 "obs bench: traced engine busy disagrees with "
                 "GpuTimeline::engine_busy beyond 1%% (service %.4f, "
                 "transport %.4f)\n",
                 svc_err, wire_err);
    return 1;
  }
  if (svc_tracer.event_count() == 0 || wire_tracer.event_count() == 0) {
    std::fprintf(stderr, "obs bench: empty trace export\n");
    return 1;
  }
  if (wire_recoveries == 0) {
    std::fprintf(stderr,
                 "obs bench: 1%% loss run recorded no retransmits or "
                 "repairs - fault injection is not reaching the wire\n");
    return 1;
  }
  return 0;
}

// One JSON mode: `--<name>_json` writes `file` in the working directory,
// `--<name>_json=PATH` writes PATH. Any other arguments go to
// google-benchmark.
struct JsonMode {
  const char* name;
  const char* file;
  int (*run)(const std::string& path);
};

const JsonMode kJsonModes[] = {
    {"chunking", "BENCH_chunking.json", run_chunking_json},
    {"service", "BENCH_service.json", run_service_json},
    {"sink_zero_copy", "BENCH_sink.json",
     [](const std::string& p) { return run_sink_zero_copy_json(p, false); }},
    {"sink_zero_copy_smoke", "BENCH_sink_smoke.json",
     [](const std::string& p) { return run_sink_zero_copy_json(p, true); }},
    {"fingerprint", "BENCH_fingerprint.json", run_fingerprint_json},
    {"index", "BENCH_index.json", run_index_json},
    {"agent", "BENCH_agent.json", run_agent_json},
    {"transport", "BENCH_transport.json", run_transport_json},
    {"obs", "BENCH_obs.json",
     [](const std::string& p) { return run_obs_json(p, false); }},
    {"obs_smoke", "BENCH_obs_smoke.json",
     [](const std::string& p) { return run_obs_json(p, true); }},
    {"retention", "BENCH_retention.json", run_retention_json},
};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    for (const JsonMode& mode : kJsonModes) {
      const std::string flag = std::string("--") + mode.name + "_json";
      if (arg == flag) return mode.run(mode.file);
      if (arg.starts_with(flag + "=")) {
        return mode.run(std::string(arg.substr(flag.size() + 1)));
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
