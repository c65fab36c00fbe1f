#include "core/shredder.h"

#include <algorithm>
#include <thread>

#include "chunking/parallel.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "gpusim/dma.h"
#include "gpusim/timeline.h"

namespace shredder::core {

void ShredderConfig::validate() const {
  frontend_engine_config(*this, registry);
}

Shredder::Shredder(ShredderConfig config)
    : config_(std::move(config)),
      tables_(config_.chunker.window) {
  config_.validate();
  device_ = std::make_unique<gpu::Device>(config_.device, config_.sim_threads);
}

namespace {

// The Reader stage (paper §5.2.1): reads `source` in pieces of up to
// `buffer_bytes` straight into leased staging slots (the engine stages the
// carry ahead of each), then submits the stream's eos. Returns early if the
// engine stops.
void stage_stream(DataSource& source, PipelineEngine& engine,
                  std::size_t buffer_bytes) {
  StreamCursor cursor;
  for (;;) {
    auto slot = engine.lease_slot(cursor);
    if (!slot.has_value()) return;
    const std::size_t got = source.read(slot->payload.first(buffer_bytes));
    if (got == 0) break;
    StreamBuffer meta;
    meta.reader_seconds = source.read_seconds(got);
    if (!engine.submit_slot(cursor, std::move(*slot), got, meta)) return;
  }
  engine.submit_eos(cursor);
}

}  // namespace

ShredderResult Shredder::run_impl(DataSource& source, ChunkSink* sink,
                                  ByteSpan whole) {
  MutexLock run_lock(run_mutex_);
  const Stopwatch wall;
  ShredderResult result;
  const bool pipelined = config_.mode != GpuMode::kBasic;
  const bool fingerprint = config_.fingerprint_on_device;
  // Streaming sources only retain payload leases when the sink asks; an
  // in-memory `whole` span provides views for free.
  const bool rolling =
      whole.empty() && sink != nullptr && sink->wants_payload();

  if (engine_ == nullptr) {
    engine_ = std::make_unique<PipelineEngine>(
        frontend_engine_config(config_, config_.registry), *device_, tables_,
        config_.chunker);
  }
  PipelineEngine& engine = *engine_;
  result.init_seconds = engine.init_seconds();
  obs::Timing* m_store_s =
      config_.registry != nullptr
          ? &config_.registry->timing("core.store_seconds")
          : nullptr;

  // Store-side state: the chunks the engine's cutter resolved so far (with
  // their digests in fingerprint mode) and the open chunk's start.
  std::uint64_t last_end = 0;
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;

  // Batch delivery to the sink: one ChunkBatchView per buffer that finalized
  // chunks (spans over the tails of `chunks`/`digests`), plus one eos batch.
  PayloadTail tail;             // rolling lease window (streaming sinks)
  // Single consumer draining the engine directly: park up to the
  // recommended number of slots in the tail for zero-copy views while
  // always leaving the pipeline a slot to circulate.
  tail.set_slot_cap(PayloadTail::recommended_slot_cap(config_.ring_slots));
  std::uint64_t batch_seq = 0;
  const auto deliver = [&](std::size_t first, bool eos) {
    if (sink == nullptr) return;
    if (!eos && chunks.size() == first) return;
    ChunkBatchView view;
    view.stream_id = 0;
    view.stream_seq = batch_seq++;
    view.eos = eos;
    view.chunks = std::span<const chunking::Chunk>(chunks).subspan(first);
    if (fingerprint) {
      view.digests =
          std::span<const dedup::ChunkDigest>(digests).subspan(first);
    }
    if (!whole.empty()) {
      view.payload = whole;
      view.payload_base = 0;
    } else if (rolling) {
      view.payload = tail.window();
      view.payload_base = tail.window_base();
      view.tail = &tail;
    }
    sink->on_batch(view);
  };

  // --- The pipeline ---
  // A feeder thread runs the Reader stage into the engine (transfer +
  // kernel threads live inside it); the Store stage runs on this thread,
  // matching Figure 8's four stages.
  std::vector<StageSeconds> stage_log;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;

  std::exception_ptr feed_error;
  std::thread feeder([&] {
    try {
      stage_stream(source, engine, config_.buffer_bytes);
    } catch (...) {
      feed_error = std::current_exception();
      engine.close();  // drains what was staged, then ends the store loop
    }
  });

  // Store stage runs on this thread until the eos batch. A pipeline-stage
  // failure surfaces as a rethrow from next_batch(); capture it so the
  // feeder thread can be unblocked and joined before the exception propagates.
  std::exception_ptr store_error;
  bool eos_seen = false;
  // Collects the batch's finalized chunks (and device digests).
  const auto collect = [&](const BoundaryBatch& batch) {
    for_each_chunk(batch, last_end, [&](const chunking::Chunk& c,
                                        const dedup::ChunkDigest* d) {
      chunks.push_back(c);
      if (d != nullptr) digests.push_back(*d);
    });
  };
  try {
  while (auto batch = engine.next_batch()) {
    total_bytes = batch->payload_end;
    const std::size_t batch_first = chunks.size();
    if (batch->eos) {
      // The stream's trailing chunks close here. In fingerprint mode the
      // trailing digest still crosses the bus, so account the D2H even
      // though the eos batch carries no boundaries.
      if (!batch->digests.empty()) {
        batch->stages.store = store_stage_seconds(
            config_.device, 0, pipelined,
            batch->digests.size() * sizeof(dedup::ChunkDigest));
        stage_log.push_back(batch->stages);
      }
      collect(*batch);
      deliver(batch_first, /*eos=*/true);
      eos_seen = true;
      break;
    }
    if (rolling && !batch->payload.empty()) {
      // Zero-copy retention: the batch's lease moves into the tail, keeping
      // the pinned slot (or basic-mode vector) alive for payload views.
      tail.append(std::move(batch->payload), batch->payload_carry);
    }
    // Copy boundaries (and digests) back device -> host, then collect the
    // engine's pre-cut chunk ends.
    batch->stages.store = store_stage_seconds(
        config_.device, batch->boundaries.size(), pipelined,
        batch->digests.size() * sizeof(dedup::ChunkDigest));
    if (m_store_s != nullptr) m_store_s->observe(batch->stages.store);
    collect(*batch);
    deliver(batch_first, /*eos=*/false);
    if (rolling) tail.trim(last_end);
    result.raw_boundaries += batch->boundaries.size();
    ++n_buffers;
    stage_log.push_back(batch->stages);
    // Aggregate kernel statistics across buffers.
    result.kernel_totals += batch->kernel_stats;
    result.fingerprint_totals += batch->fingerprint_stats;
  }
  } catch (...) {
    store_error = std::current_exception();
    engine.stop();  // wakes a feeder blocked on a slot lease
  }
  feeder.join();
  if (store_error || feed_error) {
    // The engine may be stopped or mid-stream; the next run rebuilds it.
    engine_.reset();
    std::rethrow_exception(store_error ? store_error : feed_error);
  }
  SHREDDER_CHECK_MSG(eos_seen, "Shredder: pipeline ended before end of stream");

  // --- Reporting ---
  result.chunks = std::move(chunks);
  result.digests = std::move(digests);
  result.total_bytes = total_bytes;
  result.n_buffers = n_buffers;
  StageSeconds mean;
  for (const auto& s : stage_log) {
    mean.reader += s.reader;
    mean.transfer += s.transfer;
    mean.kernel += s.kernel;
    mean.fingerprint += s.fingerprint;
    mean.store += s.store;
    result.serialized_seconds += s.sum();
  }
  if (n_buffers > 0) {
    const auto n = static_cast<double>(n_buffers);
    mean.reader /= n;
    mean.transfer /= n;
    mean.kernel /= n;
    mean.fingerprint /= n;
    mean.store /= n;
  }
  result.mean_stage_seconds = mean;
  if (pipelined) {
    // Chunk and hash kernels share the one compute engine, so they form a
    // single pipeline stage: buffer i+1's chunk kernel cannot start while
    // buffer i's hash kernel holds the engine.
    result.virtual_seconds = gpu::pipeline_makespan(
        {mean.reader, mean.transfer, mean.kernel + mean.fingerprint,
         mean.store},
        n_buffers, config_.ring_slots);
  } else {
    result.virtual_seconds = result.serialized_seconds;
  }
  result.virtual_throughput_bps =
      result.virtual_seconds > 0
          ? static_cast<double>(total_bytes) / result.virtual_seconds
          : 0.0;
  result.wall_seconds = wall.elapsed_seconds();
  return result;
}

ShredderResult Shredder::run(DataSource& source, ChunkSink& sink) {
  return run_impl(source, &sink, {});
}

ShredderResult Shredder::run(ByteSpan data, ChunkSink& sink) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, &sink, data);
}

ShredderResult Shredder::run(DataSource& source) {
  return run_impl(source, nullptr, {});
}

ShredderResult Shredder::run(ByteSpan data) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, nullptr, data);
}

HostChunkResult chunk_on_host(ByteSpan data,
                              const chunking::ChunkerConfig& chunker,
                              const gpu::HostSpec& host, bool use_arena,
                              std::size_t threads) {
  HostChunkResult result;
  const Stopwatch wall;
  rabin::RabinTables tables(chunker.window);
  chunking::ParallelChunker parallel(
      tables, chunker, threads == 0 ? static_cast<std::size_t>(host.cores) : threads,
      use_arena ? chunking::AllocMode::kThreadArena
                : chunking::AllocMode::kSharedLockedHeap);
  result.chunks = parallel.chunk(data);
  result.total_bytes = data.size();
  result.wall_seconds = wall.elapsed_seconds();
  result.wall_throughput_bps =
      result.wall_seconds > 0
          ? static_cast<double>(data.size()) / result.wall_seconds
          : 0.0;
  const double chunk_bw = use_arena ? host.pthreads_chunking_bw_hoard
                                    : host.pthreads_chunking_bw_malloc;
  // Reader and chunking overlap (both are pipelined on the host); the
  // calibrated X5650 is chunking-bound either way.
  const double reader_s = static_cast<double>(data.size()) / host.reader_bw;
  const double chunk_s = static_cast<double>(data.size()) / chunk_bw;
  result.virtual_seconds = std::max(reader_s, chunk_s);
  result.virtual_throughput_bps =
      result.virtual_seconds > 0
          ? static_cast<double>(data.size()) / result.virtual_seconds
          : 0.0;
  return result;
}

}  // namespace shredder::core
