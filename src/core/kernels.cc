#include "core/kernels.h"

#include <algorithm>
#include <stdexcept>

#include "chunking/cdc.h"
#include "common/check.h"

namespace shredder::core {

namespace {

// Sub-stream of one GPU thread: emit boundaries with end offsets in
// (emit_begin, emit_end], warming the window on the w-1 preceding bytes.
struct ThreadRange {
  std::size_t scan_begin;  // first byte pushed through the window
  std::size_t emit_begin;  // boundaries must end strictly after this index
  std::size_t emit_end;    // and at or before this index
};

ThreadRange thread_range(std::size_t payload_begin, std::size_t payload_end,
                         int total_threads, int global_thread,
                         std::size_t window) {
  const std::size_t payload = payload_end - payload_begin;
  const auto t = static_cast<std::size_t>(global_thread);
  const auto n = static_cast<std::size_t>(total_threads);
  const std::size_t per = (payload + n - 1) / n;
  const std::size_t begin = payload_begin + std::min(payload, t * per);
  const std::size_t end = payload_begin + std::min(payload, (t + 1) * per);
  const std::size_t warm = std::min(begin, window - 1);
  return ThreadRange{begin - warm, begin, end};
}

}  // namespace

GpuChunkResult chunk_on_gpu(gpu::Device& device, const gpu::DeviceBuffer& buf,
                            std::size_t data_len, std::size_t carry,
                            std::uint64_t base_offset,
                            const rabin::RabinTables& tables,
                            const chunking::ChunkerConfig& config,
                            const KernelParams& params) {
  config.validate();
  if (data_len > buf.size()) {
    throw std::invalid_argument("chunk_on_gpu: data_len exceeds buffer");
  }
  if (carry > data_len) {
    throw std::invalid_argument("chunk_on_gpu: carry exceeds data_len");
  }
  const ByteSpan data = buf.span().first(data_len);
  const std::size_t w = tables.window();
  const int total_threads = params.blocks * params.threads_per_block;

  gpu::LaunchConfig launch;
  launch.blocks = params.blocks;
  launch.threads_per_block = params.threads_per_block;
  launch.exact_dram = params.exact_dram;
  const auto& spec = device.spec();
  if (params.coalesced) {
    launch.txn_bytes = spec.coalesced_txn_bytes;
    // Tiles are fetched block-cooperatively, one tile at a time per block, so
    // DRAM sees ~one stream per concurrently resident block.
    launch.concurrent_streams = static_cast<std::uint64_t>(
        std::min(params.blocks, spec.num_sms));
  } else {
    launch.txn_bytes = spec.uncoalesced_txn_bytes;
    launch.concurrent_streams = static_cast<std::uint64_t>(total_threads);
  }

  // Per-thread boundary outputs (flattened in thread order afterwards; the
  // ranges are disjoint and ordered so the result is ascending).
  std::vector<std::vector<std::uint64_t>> out(
      static_cast<std::size_t>(total_threads));

  const auto kernel = [&](gpu::BlockCtx& ctx) {
    const std::size_t tpb = static_cast<std::size_t>(ctx.threads_per_block());
    const std::uint64_t dev_base = buf.device_addr();
    // This thread's slice of the block's shared memory (coalesced only).
    const std::size_t slice = ctx.shared_bytes() / tpb;
    for (std::size_t t = 0; t < tpb; ++t) {
      const int g = ctx.block_idx() * ctx.threads_per_block() +
                    static_cast<int>(t);
      const ThreadRange r =
          thread_range(carry, data_len, total_threads, g, w);
      if (r.emit_begin >= r.emit_end) continue;
      if (!params.coalesced) {
        // Direct global-memory walk, one 16 B segment per thread at a time.
        ctx.record_global_read(dev_base + r.scan_begin,
                               r.emit_end - r.scan_begin);
        ctx.record_processed(r.emit_end - r.scan_begin);
      } else {
        // Cooperative staging, accounted tile by tile: the thread's
        // sub-stream is consumed in tiles sized to its slice of the block's
        // shared memory, each fetched with coalesced transactions. Every
        // tile restages the w-1 bytes preceding its payload (the halo), and
        // a tile is at least 64 payload bytes (tiny slices overflow to
        // global memory, unstaged).
        std::size_t pos = r.emit_begin;  // next emit position to cover
        while (pos < r.emit_end) {
          const std::size_t halo = std::min(w - 1, pos);
          const std::size_t fit = slice > halo ? slice - halo : 0;
          const std::size_t payload =
              std::min(r.emit_end - pos, std::max<std::size_t>(64, fit));
          const std::size_t len = halo + payload;
          ctx.record_global_read(dev_base + (pos - halo), len);
          ctx.record_processed(len);
          if (len <= slice) ctx.record_shared_stage(len);
          pos += payload;
        }
      }
      // Either way the thread's boundaries are those of one scan over its
      // sub-stream, warmed on the w-1 bytes before it. Staging moves bytes,
      // not results, so the bytes are scanned once, from the buffer.
      auto& boundaries = out[static_cast<std::size_t>(g)];
      chunking::scan_buffer(
          tables, config,
          data.subspan(r.scan_begin, r.emit_end - r.scan_begin),
          r.emit_begin - r.scan_begin, base_offset + r.scan_begin,
          [&](std::uint64_t end, std::uint64_t) { boundaries.push_back(end); });
    }
  };

  GpuChunkResult result;
  result.stats = device.launch(launch, kernel);

  std::size_t total = 0;
  for (const auto& v : out) total += v.size();
  result.boundaries.reserve(total);
  for (const auto& v : out) {
    result.boundaries.insert(result.boundaries.end(), v.begin(), v.end());
  }
  SHREDDER_CHECK_MSG(
      std::is_sorted(result.boundaries.begin(), result.boundaries.end()),
      "per-thread boundary ranges must concatenate in ascending order");
  return result;
}

GpuFingerprintResult fingerprint_on_gpu(
    gpu::Device& device, const gpu::DeviceBuffer& buf, std::size_t data_len,
    std::size_t carry, std::uint64_t base_offset,
    const std::vector<std::uint64_t>& cuts, dedup::ChunkHasher& carry_ctx,
    const KernelParams& params) {
  if (data_len > buf.size()) {
    throw std::invalid_argument("fingerprint_on_gpu: data_len exceeds buffer");
  }
  if (carry > data_len) {
    throw std::invalid_argument("fingerprint_on_gpu: carry exceeds data_len");
  }
  const std::uint64_t hash_begin = base_offset + carry;
  const std::uint64_t hash_end = base_offset + data_len;
  if (!std::is_sorted(cuts.begin(), cuts.end()) ||
      (!cuts.empty() && (cuts.front() <= hash_begin || cuts.back() > hash_end))) {
    throw std::invalid_argument("fingerprint_on_gpu: cuts out of range");
  }
  const ByteSpan data = buf.span().first(data_len);

  // Hash tasks over the payload: task k < cuts.size() closes the chunk
  // ending at cuts[k]; the final task absorbs the open tail into the ctx
  // carried to the next buffer. Task 0 continues `carry_ctx` (a chunk that
  // began in an earlier buffer); every other task hashes bytes fully
  // resident here, so tasks are independent and hash in parallel.
  const std::size_t n_tasks = cuts.size() + 1;
  GpuFingerprintResult result;
  result.digests.resize(cuts.size());
  dedup::ChunkHasher tail_ctx;  // written by the block that owns the tail

  gpu::LaunchConfig launch;
  launch.blocks = params.blocks;
  launch.threads_per_block = params.threads_per_block;
  launch.exact_dram = params.exact_dram;
  const auto& spec = device.spec();
  launch.cycles_per_byte = spec.sha256_cycles_per_byte;
  if (params.coalesced) {
    launch.txn_bytes = spec.coalesced_txn_bytes;
    launch.concurrent_streams = static_cast<std::uint64_t>(
        std::min(params.blocks, spec.num_sms));
  } else {
    launch.txn_bytes = spec.uncoalesced_txn_bytes;
    launch.concurrent_streams =
        static_cast<std::uint64_t>(launch.total_threads());
  }

  const auto kernel = [&](gpu::BlockCtx& ctx) {
    // Contiguous task ranges per block, like the chunking kernel's
    // sub-streams: block b owns tasks [b*per, (b+1)*per).
    const auto nb = static_cast<std::size_t>(ctx.num_blocks());
    const auto b = static_cast<std::size_t>(ctx.block_idx());
    const std::size_t per = (n_tasks + nb - 1) / nb;
    const std::size_t first = std::min(n_tasks, b * per);
    const std::size_t last = std::min(n_tasks, (b + 1) * per);
    const std::uint64_t dev_base = buf.device_addr();
    for (std::size_t t = first; t < last; ++t) {
      const std::uint64_t seg_begin = t == 0 ? hash_begin : cuts[t - 1];
      const std::uint64_t seg_end = t < cuts.size() ? cuts[t] : hash_end;
      const std::size_t off = static_cast<std::size_t>(seg_begin - base_offset);
      const std::size_t len = static_cast<std::size_t>(seg_end - seg_begin);
      if (len > 0) {
        ctx.record_global_read(dev_base + off, len);
        ctx.record_processed(len);
      }
      if (t < cuts.size()) {
        if (t == 0) {
          carry_ctx.update(data.subspan(off, len));
          result.digests[t] = carry_ctx.finish();
        } else {
          dedup::ChunkHasher h;
          h.update(data.subspan(off, len));
          result.digests[t] = h.finish();
        }
      } else if (t == 0) {
        // No cut in this buffer: the whole payload extends the open chunk.
        carry_ctx.update(data.subspan(off, len));
        tail_ctx = carry_ctx;
      } else {
        dedup::ChunkHasher h;
        h.update(data.subspan(off, len));
        tail_ctx = h;
      }
    }
  };

  result.stats = device.launch(launch, kernel);
  carry_ctx = tail_ctx;
  // Fixed per-chunk cost (schedule + padding + digest write) on top of the
  // byte-rate model.
  const double per_chunk =
      static_cast<double>(cuts.size()) * spec.sha256_per_chunk_s;
  result.stats.compute_seconds += per_chunk;
  result.stats.virtual_seconds =
      result.stats.launch_seconds +
      std::max(result.stats.compute_seconds, result.stats.memory_seconds);
  return result;
}

}  // namespace shredder::core
