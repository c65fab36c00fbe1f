#include "core/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chunking/minmax.h"
#include "common/check.h"
#include "gpusim/dma.h"

namespace shredder::core {

double store_stage_seconds(const gpu::DeviceSpec& spec,
                           std::size_t n_boundaries, bool pinned,
                           std::size_t digest_bytes) noexcept {
  const gpu::HostMemKind kind =
      pinned ? gpu::HostMemKind::kPinned : gpu::HostMemKind::kPageable;
  // Boundary and digest arrays ride back in ONE D2H DMA descriptor: the
  // fingerprint kernel writes its digests into the tail of the boundary
  // result region, so the readback is a single contiguous transfer and the
  // per-transfer setup cost is paid once per buffer instead of twice.
  return gpu::dma_seconds(
             spec, static_cast<std::uint64_t>(n_boundaries) * 8 + digest_bytes,
             gpu::Direction::kDeviceToHost, kind) +
         static_cast<double>(n_boundaries) * 2e-9;
}

// Device-side chunk resolution, one per live stream. The cutter is a
// MinMaxFilter fed each buffer's raw boundaries, so batches group chunks
// exactly as a store-side filter would. The fingerprint stage adds a
// drain_forced() at each buffer end, which makes every chunk end at or
// before the buffer's last payload byte final while the bytes are still
// resident — the emitted sequence is provably identical (see drain_forced
// in chunking/minmax.h). `ctx` accumulates the open chunk's hash across
// buffers so chunks larger than a buffer never need evicted bytes re-read.
struct PipelineEngine::StreamCutter {
  std::vector<std::uint64_t> pending;  // cuts resolved for the current batch
  chunking::MinMaxFilter filter;
  dedup::ChunkHasher ctx;

  StreamCutter(std::uint64_t min_size, std::uint64_t max_size)
      : filter(min_size, max_size,
               [this](std::uint64_t end) { pending.push_back(end); }) {}
};

void PipelineEngineConfig::validate() const {
  if (slot_bytes == 0) {
    throw std::invalid_argument("PipelineEngineConfig: slot_bytes must be > 0");
  }
  if (ring_slots == 0) {
    throw std::invalid_argument(
        "PipelineEngineConfig: ring_slots must be >= 1");
  }
  if (kernel.blocks <= 0 || kernel.threads_per_block <= 0) {
    throw std::invalid_argument("PipelineEngineConfig: bad kernel geometry");
  }
}

PipelineEngine::PipelineEngine(const PipelineEngineConfig& config,
                               gpu::Device& device,
                               const rabin::RabinTables& tables,
                               const chunking::ChunkerConfig& chunker)
    : config_(config),
      device_(device),
      tables_(tables),
      chunker_(chunker),
      kparams_(config.kernel),
      host_kind_(config.mode != GpuMode::kBasic ? gpu::HostMemKind::kPinned
                                                : gpu::HostMemKind::kPageable),
      to_transfer_(config.mode != GpuMode::kBasic ? config.ring_slots : 1),
      to_kernel_(config.mode != GpuMode::kBasic ? 2 : 1),
      to_store_(config.mode != GpuMode::kBasic ? 2 : 1) {
  config_.validate();
  kparams_.coalesced = config_.mode == GpuMode::kStreamsCoalesced;
  if (config_.registry != nullptr) {
    obs::Registry& reg = *config_.registry;
    m_buffers_ = &reg.counter("pipeline.buffers_total");
    m_bytes_ = &reg.counter("pipeline.bytes_total");
    m_reader_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "reader"}});
    m_h2d_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "h2d"}});
    m_kernel_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "kernel"}});
    m_fingerprint_s_ =
        &reg.timing("pipeline.stage_seconds", {{"stage", "fingerprint"}});
  }
  if (pipelined()) {
    pool_ = std::make_shared<detail::SlotPool>(
        device_.spec(), config_.ring_slots, config_.slot_bytes);
    init_seconds_ = pool_->construction_cost_seconds();
    if (config_.registry != nullptr) {
      pool_->set_gauge(&config_.registry->gauge("pipeline.slots_leased"));
    }
  }
  // Device twin buffers (double buffering, §4.1.1).
  const std::size_t n_twins = pipelined() ? 2 : 1;
  for (std::size_t i = 0; i < n_twins; ++i) {
    twins_.push_back(device_.alloc(config_.slot_bytes));
  }
  twins_free_ = n_twins;
  transfer_thread_ = std::thread([this] { transfer_loop(); });
  kernel_thread_ = std::thread([this] { kernel_loop(); });
}

PipelineEngine::~PipelineEngine() {
  stop();
  // Consumer-held leases may outlive the engine AND its registry: detach
  // the gauge so their releases stop touching it. After the joins above no
  // engine thread can race this.
  if (pool_ != nullptr) pool_->set_gauge(nullptr);
}

void PipelineEngine::stop() {
  stopping_.store(true);
  if (pool_ != nullptr) pool_->stop();
  {
    MutexLock lock(twin_mutex_);
  }
  twin_cv_.notify_all();
  to_transfer_.close();
  to_kernel_.close();
  to_store_.close();
  if (transfer_thread_.joinable()) transfer_thread_.join();
  if (kernel_thread_.joinable()) kernel_thread_.join();
}

std::size_t PipelineEngine::slots_leased() const {
  return pool_ != nullptr ? pool_->leased() : 0;
}

bool PipelineEngine::acquire_twin() {
  MutexLock lock(twin_mutex_);
  while (twins_free_ == 0 && !stopping_.load()) twin_cv_.wait(twin_mutex_);
  if (twins_free_ == 0) return false;
  --twins_free_;
  return true;
}

void PipelineEngine::release_twin() {
  {
    MutexLock lock(twin_mutex_);
    ++twins_free_;
  }
  twin_cv_.notify_one();
}

// Called from a stage thread's catch block: store the exception for
// next_batch() and unblock every other party — producers waiting on a slot
// lease or a full queue, and the peer stage thread waiting on a twin.
void PipelineEngine::record_error_and_unblock() {
  {
    MutexLock lock(error_mutex_);
    if (!error_) error_ = std::current_exception();
  }
  stopping_.store(true);
  if (pool_ != nullptr) pool_->stop();
  {
    MutexLock lock(twin_mutex_);
  }
  twin_cv_.notify_all();
  to_transfer_.close();
  to_kernel_.close();
  to_store_.close();
}

std::optional<WritableSlot> PipelineEngine::lease_slot(
    const StreamCursor& cursor) {
  WritableSlot slot;
  MutableByteSpan bytes;
  if (pipelined()) {
    const auto index = pool_->acquire();
    if (!index.has_value()) return std::nullopt;
    slot.lease = SlotLease::from_slot(pool_, *index, config_.slot_bytes);
    bytes = pool_->slot_span(*index);
  } else {
    // The paper's pageable baseline: a fresh heap block per buffer. It is
    // left uninitialised: the carry and the producer overwrite every byte
    // the buffer stages.
    auto owned = std::make_unique_for_overwrite<std::uint8_t[]>(
        config_.slot_bytes);
    bytes = MutableByteSpan(owned.get(), config_.slot_bytes);
    slot.lease = SlotLease::from_owned(std::move(owned), config_.slot_bytes);
  }
  SHREDDER_CHECK(cursor.carry.size() < bytes.size());
  std::copy(cursor.carry.begin(), cursor.carry.end(), bytes.begin());
  slot.carry = cursor.carry.size();
  slot.payload = bytes.subspan(slot.carry);
  return slot;
}

bool PipelineEngine::submit_slot(StreamCursor& cursor, WritableSlot slot,
                                 std::size_t payload_len, StreamBuffer meta) {
  SHREDDER_CHECK(!meta.eos && payload_len > 0 &&
                 payload_len <= slot.payload.size());
  const std::size_t len = slot.carry + payload_len;
  meta.stream_id = cursor.stream_id;
  meta.seq = cursor.seq++;
  meta.carry = slot.carry;
  meta.base_offset = cursor.offset - slot.carry;
  cursor.offset += payload_len;
  StagedItem item;
  item.data_len = len;
  // The staged bytes live in the slot; the lease is the ONLY host copy,
  // travelling with the item all the way to the consumer as
  // BoundaryBatch::payload.
  item.lease = slot.lease.first(len);
  // The carry rule: the next buffer re-stages this one's last w-1 bytes.
  const ByteSpan tail =
      item.lease.bytes().last(std::min(chunker_.window - 1, len));
  cursor.carry.assign(tail.begin(), tail.end());
  item.meta = meta;
  // On push failure the moved-from item is destroyed inside push(); its
  // lease drops and the slot recycles automatically.
  return to_transfer_.push(std::move(item));
}

bool PipelineEngine::submit_eos(StreamCursor& cursor) {
  StagedItem item;
  item.meta.stream_id = cursor.stream_id;
  item.meta.seq = cursor.seq++;
  item.meta.eos = true;
  // For eos markers base_offset carries the stream's total byte count so
  // the consumer can finalize without extra synchronization.
  item.meta.base_offset = cursor.offset;
  return to_transfer_.push(std::move(item));
}

void PipelineEngine::close() { to_transfer_.close(); }

void PipelineEngine::transfer_loop() {
  try {
    std::size_t next_twin = 0;
    while (auto item = to_transfer_.pop()) {
      if (item->meta.eos) {
        if (!to_kernel_.push(std::move(*item))) return;
        continue;
      }
      if (!acquire_twin()) return;
      item->dev_slot = next_twin;
      next_twin = (next_twin + 1) % twins_.size();
      item->transfer_seconds = device_.memcpy_h2d(
          twins_[item->dev_slot], 0, item->lease.bytes(), host_kind_);
      // The slot is NOT released here: the lease rides to the kernel stage
      // and out with the batch, recycling when its last holder drops it.
      if (!to_kernel_.push(std::move(*item))) return;
    }
    to_kernel_.close();
  } catch (...) {
    record_error_and_unblock();
  }
}

PipelineEngine::StreamCutter& PipelineEngine::cutter(std::uint32_t stream_id) {
  auto it = cutters_.find(stream_id);
  if (it == cutters_.end()) {
    it = cutters_
             .emplace(stream_id, std::make_unique<StreamCutter>(
                                     chunker_.min_size, chunker_.max_size))
             .first;
  }
  return *it->second;
}

// Resolves the chunk ends this buffer makes final. When fingerprinting, the
// max-size cuts up to the buffer's end are drained too and the fingerprint
// kernel hashes them over the resident device twin, attaching digests and
// stage seconds to the batch.
void PipelineEngine::cut_batch(StagedItem& item, BoundaryBatch& batch) {
  StreamCutter& s = cutter(item.meta.stream_id);
  s.pending.clear();
  for (const std::uint64_t b : batch.boundaries) s.filter.push(b);
  if (config_.fingerprint) {
    s.filter.drain_forced(batch.payload_end);
    GpuFingerprintResult fr = fingerprint_on_gpu(
        device_, twins_[item.dev_slot], item.data_len, item.meta.carry,
        item.meta.base_offset, s.pending, s.ctx, kparams_);
    batch.stages.fingerprint = fr.stats.virtual_seconds;
    batch.fingerprint_stats = fr.stats;
    batch.digests = std::move(fr.digests);
  }
  batch.chunk_ends = std::move(s.pending);
  s.pending = {};
}

// eos: closes the stream's trailing chunk ends. When fingerprinting, every
// payload byte has already been absorbed into the carried hash context, so
// the final digest needs no device work beyond the finalize round.
void PipelineEngine::finish_stream(std::uint32_t stream_id,
                                   std::uint64_t total, BoundaryBatch& batch) {
  const auto it = cutters_.find(stream_id);
  if (it == cutters_.end()) return;  // empty stream: nothing to close
  StreamCutter& s = *it->second;
  s.pending.clear();
  s.filter.finish(total);
  if (config_.fingerprint) {
    SHREDDER_CHECK_MSG(s.pending.size() <= 1,
                       "fingerprint eos resolved more than the trailing chunk");
    if (!s.pending.empty()) batch.digests.push_back(s.ctx.finish());
  }
  batch.chunk_ends = std::move(s.pending);
  cutters_.erase(it);
}

void PipelineEngine::kernel_loop() {
  try {
    while (auto item = to_kernel_.pop()) {
      BoundaryBatch batch;
      batch.stream_id = item->meta.stream_id;
      batch.seq = item->meta.seq;
      if (item->meta.eos) {
        batch.eos = true;
        batch.payload_end = item->meta.base_offset;  // the stream's total
        finish_stream(batch.stream_id, batch.payload_end, batch);
        if (!to_store_.push(std::move(batch))) return;
        continue;
      }
      GpuChunkResult kr = chunk_on_gpu(
          device_, twins_[item->dev_slot], item->data_len, item->meta.carry,
          item->meta.base_offset, tables_, chunker_, kparams_);
      batch.stages.reader = item->meta.reader_seconds;
      batch.stages.transfer = item->transfer_seconds;
      batch.stages.kernel = kr.stats.virtual_seconds;
      batch.kernel_stats = kr.stats;
      batch.boundaries = std::move(kr.boundaries);
      batch.payload_end = item->meta.base_offset + item->data_len;
      batch.sched_credit = item->meta.sched_credit;
      batch.queue_depth = item->meta.queue_depth;
      if (m_reader_s_ != nullptr) {
        m_buffers_->add(1);
        // Payload only; carry bytes repeat the previous buffer's tail.
        m_bytes_->add(item->data_len - item->meta.carry);
        m_reader_s_->observe(batch.stages.reader);
        m_h2d_s_->observe(batch.stages.transfer);
        m_kernel_s_->observe(batch.stages.kernel);
      }
      // The hash kernel reads the same resident twin, so it must finish
      // before the twin is released; the next buffer's H2D still overlaps
      // on the other twin — exactly the copy/compute overlap of §4.1.1.
      cut_batch(*item, batch);
      if (config_.fingerprint && m_fingerprint_s_ != nullptr) {
        m_fingerprint_s_->observe(batch.stages.fingerprint);
      }
      // The staged bytes always ride back with the batch: slot-backed lease
      // in streams modes, an owned host vector in basic mode. Non-retaining
      // consumers drop the batch and the storage frees itself.
      batch.payload = std::move(item->lease);
      batch.payload_carry = item->meta.carry;
      release_twin();
      if (!to_store_.push(std::move(batch))) return;
    }
    to_store_.close();
  } catch (...) {
    record_error_and_unblock();
  }
}

std::optional<BoundaryBatch> PipelineEngine::next_batch() {
  auto batch = to_store_.pop();
  if (!batch.has_value()) {
    MutexLock lock(error_mutex_);
    if (error_) {
      auto err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
  return batch;
}

}  // namespace shredder::core
