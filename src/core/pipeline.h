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
//   submit() ──copy into leased pinned slot──┐
//   lease_slot() → producer reads in place ──┴► submit_slot() ──► transfer
//     thread (H2D DMA into a free device twin)
//   ──► kernel thread (chunk_on_gpu [+ fingerprint_on_gpu]) ──►
//       next_batch() on the caller (batch carries the slot's SlotLease)
//
// The ring, twins and stage threads are built once and serve stream after
// stream (§4.1.2): the service multiplexes many streams over one engine,
// and Shredder keeps one engine for all its runs, each one eos-terminated
// stream.
//
// With config.fingerprint set, the kernel thread runs a second device
// kernel per buffer: it resolves the final (min/max-filtered) chunk ends on
// the device side and SHA-256-hashes each chunk over the still-resident
// twin, so batches come back with chunk+digest pairs and the host never
// rehashes. The hash kernel of buffer i overlaps the H2D of buffer i+1 on
// the other twin (docs/fingerprint.md has the timeline).
//
// Pinned-ring slots are *leased*: submit() blocks while every slot is in
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
// The staged bytes are carry_prefix ++ data: producers that already hold
// carry and payload contiguously put everything in `data` and set `carry`;
// producers with a separate window-context tail (the service scheduler)
// pass it via `carry_prefix` and the engine splices the two directly into
// the staging slot — no concatenation copy on the hot path. Producers that
// fill a leased slot in place (submit_slot) leave both empty.
struct StreamBuffer {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;          // per-stream buffer sequence number
  std::size_t carry = 0;          // leading window-context bytes in `data`
  ByteVec carry_prefix;           // window-context bytes staged before `data`
  std::uint64_t base_offset = 0;  // absolute offset of the first staged byte
  ByteVec data;                   // (carry +) payload
  double reader_seconds = 0;      // modelled producer time for the payload
  bool eos = false;               // end-of-stream marker; data must be empty
  // Scheduler context stamped by the producer (the service's dispatch path)
  // and echoed back on the BoundaryBatch, so the store thread can emit
  // credit/queue-depth trace points at the batch's virtual completion time.
  double sched_credit = 0;
  std::uint32_t queue_depth = 0;
};

// Raw content boundaries of one buffer, tagged like the StreamBuffer that
// produced them. eos batches carry no boundaries and mark that every
// preceding buffer of that stream has been delivered.
//
// When the engine fingerprints, chunk_ends/digests carry the stream's
// *final* chunking (min/max applied on the device side) resolved as far as
// this buffer allows, with one device-computed SHA-256 per chunk; the eos
// batch then carries the stream's trailing chunk. Consumers use them
// directly instead of running their own min/max filter.
struct BoundaryBatch {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  bool eos = false;
  std::vector<std::uint64_t> boundaries;
  std::vector<std::uint64_t> chunk_ends;      // fingerprint mode only
  std::vector<dedup::ChunkDigest> digests;    // 1:1 with chunk_ends
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

// Walks a fingerprint-mode batch's (chunk_ends, digests) pairs: rebuilds
// each chunk from the stream's previous end offset, advances it, and hands
// (chunk, digest) to `fn` — the one place the pairing/reassembly rule
// lives, shared by every consumer (Shredder's store loop, the service's
// per-tenant store path).
template <typename Fn>
void for_each_fingerprinted_chunk(const BoundaryBatch& batch,
                                  std::uint64_t& last_end, Fn&& fn) {
  for (std::size_t i = 0; i < batch.chunk_ends.size(); ++i) {
    const chunking::Chunk c{last_end, batch.chunk_ends[i] - last_end};
    last_end = batch.chunk_ends[i];
    fn(c, batch.digests[i]);
  }
}

// A staging slot leased to a producer that fills it in place: `bytes` is
// kept alive by `lease`, so a slot dropped unsubmitted returns to the ring.
struct WritableSlot {
  SlotLease lease;
  MutableByteSpan bytes;
};

struct PipelineEngineConfig {
  GpuMode mode = GpuMode::kStreamsCoalesced;
  std::size_t slot_bytes = 0;  // staging slot size = buffer_bytes + (w-1)
  std::size_t ring_slots = 4;  // pinned ring = number of leasable slots
  KernelParams kernel;         // coalesced flag is derived from `mode`
  // Adds the on-device fingerprint stage: after the chunking kernel, a
  // SHA-256 kernel hashes every resolved chunk over the still-resident
  // buffer and the digests ride back with the batch. Requires producers to
  // submit an eos StreamBuffer per stream (the trailing chunk closes there).
  bool fingerprint = false;
  // Optional metrics registry (borrowed; must outlive the engine). The
  // engine publishes pipeline.buffers_total / pipeline.bytes_total, the
  // per-stage virtual-second timings and the pipeline.slots_leased gauge.
  // Null => no metrics, zero cost.
  obs::Registry* registry = nullptr;

  void validate() const;
};

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

  // Moves `buf` into the pipeline: leases a pinned slot (blocking while all
  // slots are in flight — this is the backpressure point), stages the bytes
  // and hands them to the transfer thread. Returns false if the engine was
  // shut down. Buffers of one stream must be submitted in stream order.
  bool submit(StreamBuffer buf);

  // In-place staging: lease_slot() blocks like submit() for a free pinned
  // slot (basic mode: a fresh pageable vector); nullopt once the engine is
  // stopping. The producer writes carry ++ payload into slot.bytes, then
  // submit_slot() queues its first `len` bytes under `meta` (meta.carry =
  // leading context bytes; data, carry_prefix empty); false once shut down.
  std::optional<WritableSlot> lease_slot();
  bool submit_slot(WritableSlot slot, std::size_t len, StreamBuffer meta);

  // Signals end of all submissions; next_batch() drains and then returns
  // nullopt.
  void close();

  // Next finished batch in global submission order; nullopt once closed and
  // drained. Rethrows any pipeline-thread failure.
  std::optional<BoundaryBatch> next_batch();

  // Hard-stops the pipeline: wakes any producer blocked on a slot lease
  // (their submit returns false), closes every queue and joins the stage
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

  // Per-stream device-resident fingerprint state (kernel thread only):
  // the min/max cutter resolving final chunk ends and the running SHA-256
  // of the open chunk. Defined in pipeline.cc.
  struct FingerprintSession;

  FingerprintSession& fp_session(std::uint32_t stream_id);
  void fingerprint_batch(StagedItem& item, BoundaryBatch& batch);
  void finish_fingerprint(std::uint32_t stream_id, std::uint64_t total,
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
  // submit() and the kernel thread touch them lock-free on the hot path.
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

  // Kernel-thread-only: one fingerprint session per live stream.
  std::unordered_map<std::uint32_t, std::unique_ptr<FingerprintSession>>
      fp_sessions_;

  Mutex error_mutex_;
  std::exception_ptr error_ GUARDED_BY(error_mutex_);
  std::thread transfer_thread_;
  std::thread kernel_thread_;
};

}  // namespace shredder::core
