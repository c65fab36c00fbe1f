// Shredder: the GPU-accelerated content-based chunking service
// (paper §3–§5). This is the library's primary public API.
//
// The workflow matches Figure 2/8 of the paper: a Reader thread pulls the
// input stream into host buffers, a Transfer thread DMAs them into device
// memory (double-buffered twins), the chunking kernel finds raw content
// boundaries in parallel on the (simulated) GPU, the engine's per-stream
// cutter applies min/max sizes, and a Store thread copies the chunk ends
// back and hands the application one batch of finished chunks per buffer.
//
// Three operating modes expose the paper's optimization ladder (Fig 12):
//   kBasic            serialized stages, pageable host memory, direct
//                     device-memory kernel                       (§3.1)
//   kStreams          pinned ring buffers + double buffering + 4-stage
//                     streaming pipeline                          (§4.1–4.2)
//   kStreamsCoalesced kStreams + memory-coalesced kernel          (§4.3)
//
// A Shredder keeps one PipelineEngine for its whole life, so the pinned
// ring, the device twins and the stage threads are allocated once and each
// run is one eos-terminated stream on them (§4.1.2). Concurrent runs on one
// Shredder are serialised.
//
// Every run does the real work on real bytes (the returned chunks are
// bit-identical to chunking::chunk_serial) and additionally reports virtual
// timings under the calibrated C2050 model so CPU/GPU comparisons reproduce
// the paper's era rather than this host.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chunking/chunk.h"
#include "common/mutex.h"
#include "core/kernels.h"
#include "core/pipeline.h"
#include "core/sink.h"
#include "core/source.h"
#include "gpusim/device.h"
#include "gpusim/pinned.h"
#include "gpusim/spec.h"
#include "rabin/rabin.h"

namespace shredder::core {

// GpuMode and StageSeconds live in core/pipeline.h (the pipeline engine is
// shared with the multi-tenant service); both are re-exported here because
// this header is the single-stream public API.

struct ShredderConfig {
  chunking::ChunkerConfig chunker;
  std::size_t buffer_bytes = 32ull * 1024 * 1024;  // pipeline buffer size
  GpuMode mode = GpuMode::kStreamsCoalesced;
  KernelParams kernel;
  std::size_t ring_slots = 4;  // pinned ring = number of pipeline stages
  gpu::DeviceSpec device;
  gpu::HostSpec host;
  std::size_t sim_threads = 0;  // host threads simulating the GPU (0 = auto)
  // Run the on-device fingerprint stage: each chunk is SHA-256-hashed by a
  // second kernel while its buffer is still resident, and the result carries
  // one digest per chunk (bit-identical to host dedup::Sha256).
  bool fingerprint_on_device = false;
  // Optional metrics registry (borrowed; must outlive the Shredder, whose
  // engine keeps its metric handles between runs). Forwarded to the pipeline
  // engine, which publishes pipeline.* counters and stage timings; the store
  // stage adds core.store_seconds. Virtual-time
  // *tracing* runs through the service path (a 1-tenant ChunkingService is
  // the single-stream trace) — see docs/observability.md.
  obs::Registry* registry = nullptr;

  void validate() const;
};

struct ShredderResult {
  std::vector<chunking::Chunk> chunks;
  // One digest per chunk when fingerprint_on_device is set; empty otherwise.
  std::vector<dedup::ChunkDigest> digests;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;
  std::uint64_t raw_boundaries = 0;

  // Virtual end-to-end time under the configured mode (serialized for
  // kBasic; 4-stage pipeline makespan otherwise) and its throughput.
  double virtual_seconds = 0;
  double virtual_throughput_bps = 0;
  // Sum of all stage durations (the fully serialized execution).
  double serialized_seconds = 0;
  // Mean per-buffer stage durations (inputs to pipeline modelling).
  StageSeconds mean_stage_seconds;
  // One-time pinned-ring construction cost (streams modes only).
  double init_seconds = 0;
  // Aggregated kernel statistics over all buffers.
  gpu::KernelRunStats kernel_totals;
  // Aggregated fingerprint-kernel statistics (fingerprint mode only).
  gpu::KernelRunStats fingerprint_totals;
  // Real host time spent executing the run.
  double wall_seconds = 0;
};

class Shredder {
 public:
  // Throws std::invalid_argument on bad configuration.
  explicit Shredder(ShredderConfig config);

  // Batch-first consumption: `sink` receives one ChunkBatchView per drained
  // pipeline buffer that finalized chunks, in stream order, plus exactly one
  // eos batch — no per-chunk dispatch on the store path. The ByteSpan
  // overload always provides payload views into `data`; the DataSource
  // overload retains buffer bytes for them only when sink.wants_payload().
  ShredderResult run(DataSource& source, ChunkSink& sink);
  ShredderResult run(ByteSpan data, ChunkSink& sink);

  // Chunks the whole stream from `source` and returns the full result only.
  ShredderResult run(DataSource& source);

  // Convenience: chunk an in-memory buffer served at the host reader
  // bandwidth (the SAN model).
  ShredderResult run(ByteSpan data);

  const ShredderConfig& config() const noexcept { return config_; }
  const rabin::RabinTables& tables() const noexcept { return tables_; }
  gpu::Device& device() noexcept { return *device_; }

 private:
  // `whole` is the full stream bytes when the caller holds them in memory
  // (payload views come for free); empty for true streaming sources.
  ShredderResult run_impl(DataSource& source, ChunkSink* sink, ByteSpan whole);

  ShredderConfig config_;
  rabin::RabinTables tables_;
  std::unique_ptr<gpu::Device> device_;
  Mutex run_mutex_;
  // Built by the first run, kept across runs, dropped after a failed one.
  // Declared after the device, tables and config it borrows.
  std::unique_ptr<PipelineEngine> engine_ GUARDED_BY(run_mutex_);
};

// Host-only parallel chunking with the same result/report shape, for the
// CPU-vs-GPU comparisons of Fig 12 (paper §5.1). Virtual timings use the
// calibrated X5650 pthreads throughput from HostSpec.
struct HostChunkResult {
  std::vector<chunking::Chunk> chunks;
  std::uint64_t total_bytes = 0;
  double virtual_seconds = 0;        // max(reader, chunking) — overlapped
  double virtual_throughput_bps = 0;
  double wall_seconds = 0;           // real measured time on this machine
  double wall_throughput_bps = 0;
};

HostChunkResult chunk_on_host(ByteSpan data,
                              const chunking::ChunkerConfig& chunker,
                              const gpu::HostSpec& host, bool use_arena,
                              std::size_t threads = 0);

}  // namespace shredder::core
