// Reusable GPU chunking pipeline engine (paper §4.1–4.2, Figure 8).
//
// PipelineEngine is the transfer→kernel core of Shredder's 4-stage pipeline,
// factored out of core::Shredder so that *any* number of producers can share
// one device: every work item is tagged with the client stream that produced
// it, flows through the pinned staging ring, the H2D DMA and the chunking
// kernel in submission order, and comes back out as a BoundaryBatch carrying
// the same tag. Single-stream Shredder::run and the multi-tenant
// service::ChunkingService are both thin shells around this engine.
//
// Stage layout (each arrow is a bounded queue; depth bounds the buffers in
// flight, exactly like Figure 8's ring):
//
//   lease_slot() → producer writes its payload in place behind the carry
//   ──► submit_slot() ──► transfer thread (H2D DMA into a free device twin)
//   ──► kernel thread (chunk_on_gpu, per-stream min/max cut
//       [+ fingerprint_on_gpu]) ──►
//       next_batch() on the caller (batch carries the slot's SlotLease)
//
// A leased slot is the only way in, and the kernel thread's per-stream
// min/max cutter is the only cut: every batch carries final chunk ends.
//
// The ring, twins and stage threads are built once and serve stream after
// stream (§4.1.2): the service multiplexes many streams over one engine,
// and Shredder keeps one engine for all its runs, each one eos-terminated
// stream.
//
// With config.fingerprint set, the kernel thread runs a second device
// kernel per buffer: the cutter also drains max-size cuts up to the
// buffer's end, and each chunk is SHA-256-hashed over the still-resident
// twin, so batches come back with chunk+digest pairs and the host never
// rehashes. The hash kernel of buffer i overlaps the H2D of buffer i+1 on
// the other twin (docs/fingerprint.md has the timeline).
//
// Pinned-ring slots are *leased*: lease_slot() blocks while every slot is in
// flight, which is the engine-level backpressure the service relies on when
// clients outrun the device. A slot stays leased until the LAST SlotLease
// referencing it drops (core/lease.h) — every BoundaryBatch carries its
// buffer's staged bytes as a refcounted lease, so consumers that retain
// payload windows (rolling PayloadTail, the service's dedup store path)
// alias the pinned slot directly instead of copying, and a consumer that
// holds leases too long simply extends the same backpressure to producers.
// The pipeline.slots_leased gauge tracks the outstanding count.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunking/chunk.h"
#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "core/kernels.h"
#include "core/lease.h"
#include "dedup/digest.h"
#include "gpusim/device.h"
#include "gpusim/pinned.h"
#include "obs/registry.h"
#include "rabin/rabin.h"

namespace shredder::core {

// Operating modes exposing the paper's optimization ladder (Fig 12).
enum class GpuMode { kBasic, kStreams, kStreamsCoalesced };

// Per-buffer virtual durations of the pipeline stages. `fingerprint` is the
// on-device hash kernel (zero unless the engine fingerprints); it runs on
// the compute engine right after the chunking kernel, overlapping the next
// buffer's H2D exactly like the chunking kernel does.
struct StageSeconds {
  double reader = 0;
  double transfer = 0;
  double kernel = 0;
  double fingerprint = 0;
  double store = 0;

  double sum() const noexcept {
    return reader + transfer + kernel + fingerprint + store;
  }
};

// A unit of pipeline work tagged with the client stream that produced it.
// The engine stamps the stream fields from the producer's StreamCursor.
struct StreamBuffer {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;          // per-stream buffer sequence number
  std::size_t carry = 0;          // leading window-context bytes staged
  std::uint64_t base_offset = 0;  // absolute offset of the first staged byte
  double reader_seconds = 0;      // modelled producer time for the payload
  bool eos = false;               // end-of-stream marker; stages no bytes
  // Scheduler context stamped by the producer (the service's dispatch path)
  // and echoed back on the BoundaryBatch, so the store thread can emit
  // credit/queue-depth trace points at the batch's virtual completion time.
  double sched_credit = 0;
  std::uint32_t queue_depth = 0;
};

// One stream's producer-side position: next sequence number, payload bytes
// staged so far, and the carry — the last w-1 staged bytes, re-staged ahead
// of the next buffer so Rabin windows spanning seams are never lost. The
// engine's staging calls keep it; one per stream, used from one thread.
struct StreamCursor {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
  ByteVec carry;
};

// Raw content boundaries of one buffer, tagged like the StreamBuffer that
// produced them, plus the stream's final chunk ends (min/max applied)
// resolved as far as this buffer allows. The eos batch carries no
// boundaries, the stream's trailing chunk ends, and marks that every
// preceding buffer of that stream has been delivered. When the engine
// fingerprints, each end comes with a device SHA-256 and max-size cuts are
// drained up to the buffer's end, so the eos batch holds at most one end.
struct BoundaryBatch {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  bool eos = false;
  std::vector<std::uint64_t> boundaries;
  std::vector<std::uint64_t> chunk_ends;      // final chunk ends
  std::vector<dedup::ChunkDigest> digests;    // fingerprint mode, 1:1 ends
  StageSeconds stages;
  gpu::KernelRunStats kernel_stats;
  gpu::KernelRunStats fingerprint_stats;
  std::uint64_t payload_end = 0;  // absolute end offset covered so far
  // The buffer's staged bytes, riding back with the batch as a refcounted
  // lease: payload covers [payload_end - payload.size(), payload_end), and
  // its first payload_carry bytes are window context repeated from the
  // previous buffer. Slot-backed in streams modes (zero-copy view of the
  // pinned slot; the slot recycles when the last lease drops), an owned
  // vector in basic mode. Consumers that don't retain payloads just drop
  // the batch and the storage frees itself. Empty on eos batches.
  SlotLease payload;
  std::size_t payload_carry = 0;
  // Scheduler context echoed from the StreamBuffer (see StreamBuffer).
  double sched_credit = 0;
  std::uint32_t queue_depth = 0;
};

// Modelled Store-stage seconds for one batch: one D2H DMA descriptor
// carrying the boundary array AND the digest array when the fingerprint
// stage ran (digest_bytes = sizeof(ChunkDigest) * n_digests; the two arrays
// are contiguous in the device result region, so a single transfer per
// buffer brings both back), plus per-boundary filter handling.
double store_stage_seconds(const gpu::DeviceSpec& spec,
                           std::size_t n_boundaries, bool pinned,
                           std::size_t digest_bytes = 0) noexcept;

// Walks a batch's chunk ends: rebuilds each chunk from the stream's previous
// end offset, advances it, and hands (chunk, digest or null unless the
// engine fingerprints) to `fn` — the one place the reassembly rule lives,
// shared by Shredder's store loop and the service's per-tenant store path.
template <typename Fn>
void for_each_chunk(const BoundaryBatch& batch, std::uint64_t& last_end,
                    Fn&& fn) {
  const bool paired = !batch.digests.empty();
  for (std::size_t i = 0; i < batch.chunk_ends.size(); ++i) {
    const chunking::Chunk c{last_end, batch.chunk_ends[i] - last_end};
    last_end = batch.chunk_ends[i];
    fn(c, paired ? &batch.digests[i] : nullptr);
  }
}

// A staging slot leased to a producer: the stream's carry is already staged
// at the slot's front and the producer writes its payload into `payload`,
// right behind it. `lease` keeps the bytes alive, so a slot dropped
// unsubmitted returns to the ring.
struct WritableSlot {
  SlotLease lease;
  MutableByteSpan payload;
  std::size_t carry = 0;  // carry bytes staged ahead of `payload`
};

struct PipelineEngineConfig {
  GpuMode mode = GpuMode::kStreamsCoalesced;
  std::size_t slot_bytes = 0;  // staging slot size = buffer_bytes + (w-1)
  std::size_t ring_slots = 4;  // pinned ring = number of leasable slots
  KernelParams kernel;         // coalesced flag is derived from `mode`
  // Adds the on-device fingerprint stage: after the chunking kernel, a
  // SHA-256 kernel hashes every resolved chunk over the still-resident
  // buffer and the digests ride back with the batch.
  bool fingerprint = false;
  // Optional metrics registry (borrowed; must outlive the engine). The
  // engine publishes pipeline.buffers_total / pipeline.bytes_total, the
  // per-stage virtual-second timings and the pipeline.slots_leased gauge.
  // Null => no metrics, zero cost.
  obs::Registry* registry = nullptr;

  void validate() const;
};

// The engine configuration of a frontend (Shredder, ChunkingService), built
// in this one place from the settings both configs name alike: a slot holds
// one buffer plus the w-1 carry bytes. Throws std::invalid_argument on
// settings that cannot make an engine; frontends validate through it.
template <typename FrontendConfig>
PipelineEngineConfig frontend_engine_config(const FrontendConfig& c,
                                            obs::Registry* registry) {
  c.chunker.validate();
  // A buffer must hold more than the w-1 carried context bytes.
  if (c.buffer_bytes < c.chunker.window * 2) {
    throw std::invalid_argument("buffer_bytes must be >= 2 * window");
  }
  PipelineEngineConfig e;
  e.mode = c.mode;
  e.slot_bytes = c.buffer_bytes + c.chunker.window - 1;
  e.ring_slots = c.ring_slots;
  e.kernel = c.kernel;
  e.fingerprint = c.fingerprint_on_device;
  e.registry = registry;
  e.validate();
  return e;
}

class PipelineEngine {
 public:
  // The engine borrows `device`, `tables` and `chunker`; all three must
  // outlive it. Throws std::invalid_argument on bad configuration.
  PipelineEngine(const PipelineEngineConfig& config, gpu::Device& device,
                 const rabin::RabinTables& tables,
                 const chunking::ChunkerConfig& chunker);
  ~PipelineEngine();

  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  // Leases a staging slot with the cursor's carry staged at its front,
  // blocking while every pinned slot is in flight — the engine-level
  // backpressure point (basic mode: a fresh pageable vector). nullopt once
  // the engine is stopping.
  std::optional<WritableSlot> lease_slot(const StreamCursor& cursor);
  // Queues the carry plus the first `payload_len` (> 0) bytes of
  // slot.payload as the stream's next buffer, stamping meta's stream fields
  // from `cursor` and advancing it (the next carry is the last w-1 staged
  // bytes). Buffers of one stream must be submitted in stream order.
  // Returns false once the engine was shut down.
  bool submit_slot(StreamCursor& cursor, WritableSlot slot,
                   std::size_t payload_len, StreamBuffer meta);
  // Queues the stream's end-of-stream marker; its batch carries the
  // trailing chunk ends. Returns false once the engine was shut down.
  bool submit_eos(StreamCursor& cursor);

  // Signals end of all submissions; next_batch() drains and then returns
  // nullopt.
  void close();

  // Next finished batch in global submission order; nullopt once closed and
  // drained. Rethrows any pipeline-thread failure.
  std::optional<BoundaryBatch> next_batch();

  // Hard-stops the pipeline: wakes any producer blocked on a slot lease
  // (their lease_slot returns nullopt), closes every queue and joins the stage
  // threads. Idempotent; also runs from the destructor.
  void stop();

  // One-time pinned-ring construction cost (streams modes only).
  double init_seconds() const noexcept { return init_seconds_; }
  bool pipelined() const noexcept { return config_.mode != GpuMode::kBasic; }
  // Pinned slots currently held by a lease — in-flight pipeline items plus
  // whatever consumers retain. 0 in basic mode and after full drains.
  std::size_t slots_leased() const;

 private:
  // A StreamBuffer whose payload has been staged: `lease` holds the bytes
  // (a pinned slot in streams modes, an owned pageable vector in basic
  // mode) through DMA and beyond. Empty for eos markers.
  struct StagedItem {
    StreamBuffer meta;
    SlotLease lease;
    std::size_t data_len = 0;
    std::size_t dev_slot = 0;
    double transfer_seconds = 0;
  };

  // Per-stream device-resident cut state (kernel thread only): the min/max
  // cutter resolving final chunk ends and, when fingerprinting, the running
  // SHA-256 of the open chunk. Defined in pipeline.cc.
  struct StreamCutter;

  StreamCutter& cutter(std::uint32_t stream_id);
  void cut_batch(StagedItem& item, BoundaryBatch& batch);
  void finish_stream(std::uint32_t stream_id, std::uint64_t total,
                     BoundaryBatch& batch);

  bool acquire_twin();
  void release_twin();
  void record_error_and_unblock();
  void transfer_loop();
  void kernel_loop();

  PipelineEngineConfig config_;
  gpu::Device& device_;
  const rabin::RabinTables& tables_;
  const chunking::ChunkerConfig& chunker_;
  // Metric handles resolved once at construction (null when no registry):
  // the kernel thread touch them lock-free on the hot path.
  obs::Counter* m_buffers_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Timing* m_reader_s_ = nullptr;
  obs::Timing* m_h2d_s_ = nullptr;
  obs::Timing* m_kernel_s_ = nullptr;
  obs::Timing* m_fingerprint_s_ = nullptr;
  KernelParams kparams_;
  gpu::HostMemKind host_kind_;
  double init_seconds_ = 0;

  // The pinned ring + free-slot accounting, shared with every slot-backed
  // lease so consumer-held leases outlive the engine safely. Null in basic
  // mode (no ring; payloads travel as owned vectors).
  std::shared_ptr<detail::SlotPool> pool_;
  std::atomic<bool> stopping_{false};  // wakes twin waiters at shutdown

  std::vector<gpu::DeviceBuffer> twins_;
  Mutex twin_mutex_;
  CondVar twin_cv_;
  std::size_t twins_free_ GUARDED_BY(twin_mutex_) = 0;

  BoundedQueue<StagedItem> to_transfer_;
  BoundedQueue<StagedItem> to_kernel_;
  BoundedQueue<BoundaryBatch> to_store_;

  // Kernel-thread-only: one cutter per live stream.
  std::unordered_map<std::uint32_t, std::unique_ptr<StreamCutter>> cutters_;

  Mutex error_mutex_;
  std::exception_ptr error_ GUARDED_BY(error_mutex_);
  std::thread transfer_thread_;
  std::thread kernel_thread_;
};

}  // namespace shredder::core
