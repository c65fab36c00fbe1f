#include "backup/backup_server.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/timer.h"
#include "dedup/dedup.h"

namespace shredder::backup {

namespace {

bool chunker_equal(const chunking::ChunkerConfig& a,
                   const chunking::ChunkerConfig& b) {
  return a.window == b.window && a.mask_bits == b.mask_bits &&
         a.marker == b.marker && a.min_size == b.min_size &&
         a.max_size == b.max_size;
}

// ChunkSink recording the drained-buffer batch structure of a chunking run
// as cumulative chunk counts — the granularity the wire batches reuse.
class BatchRecorder final : public ChunkSink {
 public:
  explicit BatchRecorder(std::vector<std::size_t>& ends) : ends_(ends) {}
  void on_batch(const ChunkBatchView& batch) override {
    total_ += batch.chunks.size();
    if (!batch.chunks.empty()) ends_.push_back(total_);
  }

 private:
  std::vector<std::size_t>& ends_;
  std::size_t total_ = 0;
};

}  // namespace

BackupServer::BackupServer(BackupServerConfig config)
    : config_(std::move(config)) {
  config_.chunker.validate();
  // The repair source of the batched transport path: every unique chunk the
  // server ships is also retained here, so a re-requested digest can always
  // be served. Shareable (e.g. with a dedup_on_store service). Server-owned
  // instances run in deferred-reclaim mode: snapshot deletes park zero-ref
  // chunks for the GC epoch protocol instead of freeing them inline.
  store_ = config_.store ? config_.store
                         : std::make_shared<dedup::ChunkStore>(
                               /*deferred_reclaim=*/true);
  // The baseline backend's flat probe/insert costs live in BackupCostModel
  // (§7.3 calibration); copy them into the index config so both knobs agree.
  dedup::IndexConfig index_cfg = config_.index;
  index_cfg.costs.probe_s = config_.costs.index_probe_s;
  index_cfg.costs.insert_s = config_.costs.index_insert_s;
  index_ = dedup::make_index(index_cfg);
  // With a shared service and no explicit registry, the server publishes
  // into the service's registry so one snapshot() covers both layers.
  registry_ = config_.registry;
  if (registry_ == nullptr && config_.service) {
    registry_ = &config_.service->registry();
  }
  // Snapshot lifecycle over the repair store: manifests, delete walks, GC.
  retention::RetentionConfig retention_cfg;
  retention_cfg.costs = config_.retention_costs;
  retention_cfg.registry = registry_;
  retention_cfg.tracer = config_.tracer;
  retention_ = std::make_unique<retention::RetentionManager>(store_,
                                                             retention_cfg);
  switch (config_.backend) {
    case ChunkerBackend::kShredderGpu:
      config_.shredder.chunker = config_.chunker;
      config_.shredder.fingerprint_on_device = config_.fingerprint_on_device;
      config_.shredder.registry = registry_;
      shredder_ = std::make_unique<core::Shredder>(config_.shredder);
      break;
    case ChunkerBackend::kPthreadsCpu:
      // The CPU baseline has no device to fingerprint on.
      config_.fingerprint_on_device = false;
      cpu_tables_ = std::make_unique<rabin::RabinTables>(config_.chunker.window);
      cpu_chunker_ = std::make_unique<chunking::ParallelChunker>(
          *cpu_tables_, config_.chunker, config_.cpu_threads,
          chunking::AllocMode::kThreadArena);
      break;
    case ChunkerBackend::kSharedService:
      if (!config_.service) {
        throw std::invalid_argument(
            "BackupServer: kSharedService requires a ChunkingService");
      }
      if (!chunker_equal(config_.service->config().chunker, config_.chunker)) {
        throw std::invalid_argument(
            "BackupServer: shared service chunker configuration differs");
      }
      if (config_.service->config().fingerprint_on_device !=
          config_.fingerprint_on_device) {
        throw std::invalid_argument(
            "BackupServer: shared service fingerprint_on_device differs");
      }
      break;
  }
}

TransportConfig BackupServer::transport_config(
    const std::string& image_id) const {
  TransportConfig cfg = config_.transport;
  // Single source of truth for the framing calibration: the transport
  // always prices frames with the cost model's link constants.
  cfg.link = config_.costs.link;
  cfg.tracer = config_.tracer;
  cfg.trace_label = image_id;
  if (config_.backend == ChunkerBackend::kSharedService && config_.service) {
    if (const auto t = config_.service->tenant_transport(image_id)) {
      if (t->window_frames > 0) cfg.window_frames = t->window_frames;
      if (t->rto_s > 0) cfg.rto_s = t->rto_s;
      if (t->agent_apply_bw >= 0) cfg.agent_apply_bw = t->agent_apply_bw;
      if (t->drop >= 0) cfg.faults.drop = t->drop;
      if (t->reorder >= 0) cfg.faults.reorder = t->reorder;
      if (t->duplicate >= 0) cfg.faults.duplicate = t->duplicate;
      if (t->delay >= 0) cfg.faults.delay = t->delay;
      if (t->stall >= 0) cfg.faults.stall = t->stall;
      if (t->fault_seed != 0) cfg.faults.seed = t->fault_seed;
    }
  }
  return cfg;
}

double BackupServer::chunk_image(const std::string& image_id, ByteSpan image,
                                 std::vector<chunking::Chunk>& chunks,
                                 std::vector<dedup::ChunkDigest>& digests,
                                 std::vector<std::size_t>& batch_ends) {
  BatchRecorder recorder(batch_ends);
  switch (config_.backend) {
    case ChunkerBackend::kShredderGpu: {
      auto result = shredder_->run(image, recorder);
      chunks = std::move(result.chunks);
      digests = std::move(result.digests);
      return result.virtual_seconds;
    }
    case ChunkerBackend::kPthreadsCpu: {
      chunks = cpu_chunker_->chunk(image);
      // No pipeline buffers on the CPU path: synthesize batch bounds at the
      // same buffer granularity the GPU backends ship at, so the wire
      // protocol amortizes identically. (Exact bounds may differ at buffer
      // seams — a spanning chunk lands in the earlier batch here but in the
      // draining buffer's batch on the pipeline backends.)
      const std::size_t buffer = config_.shredder.buffer_bytes;
      std::uint64_t limit = buffer;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (chunks[i].end() >= limit) {
          batch_ends.push_back(i + 1);
          while (limit <= chunks[i].end()) limit += buffer;
        }
      }
      if (batch_ends.empty() || batch_ends.back() != chunks.size()) {
        batch_ends.push_back(chunks.size());
      }
      const gpu::HostSpec host;
      return static_cast<double>(image.size()) /
             host.pthreads_chunking_bw_hoard;
    }
    case ChunkerBackend::kSharedService: {
      core::MemorySource source(image,
                                config_.service->config().host.reader_bw);
      service::TenantOptions opts;
      opts.name = image_id;
      opts.sink = &recorder;
      auto result = config_.service->chunk_stream(source, std::move(opts));
      chunks = std::move(result.chunks);
      digests = std::move(result.digests);
      return result.report.virtual_seconds;
    }
  }
  throw std::logic_error("BackupServer: unknown backend");
}

BackupRunStats BackupServer::dedup_and_ship(
    const std::string& image_id, ByteSpan image,
    std::vector<chunking::Chunk> chunks,
    std::vector<dedup::ChunkDigest> digests,
    std::vector<std::size_t> batch_ends, double generation_seconds,
    double chunking_seconds, BackupAgent& agent) {
  Stopwatch wall;
  BackupRunStats stats;
  stats.bytes = image.size();
  stats.generation_seconds = generation_seconds;
  stats.chunking_seconds = chunking_seconds;
  stats.chunks = chunks.size();
  stats.device_fingerprint = !digests.empty();
  if (stats.device_fingerprint && digests.size() != chunks.size()) {
    throw std::invalid_argument(
        "BackupServer: digest/chunk count mismatch from the chunking stage");
  }
  if (batch_ends.empty() || batch_ends.back() != chunks.size()) {
    batch_ends.push_back(chunks.size());
  }

  // --- Hash + index lookup + transfer stages ---
  // With device fingerprints the hash stage already happened inside the
  // chunking pipeline (its kernel time is part of chunking_seconds), so the
  // host hashing term drops out of the bandwidth equation.
  stats.hashing_seconds =
      stats.device_fingerprint
          ? 0.0
          : static_cast<double>(image.size()) / config_.costs.host_hash_bw;
  // Host hashing, when the chunking stage left it to us, happens up front:
  // on the CPU backend's idle chunker pool, serially on the other backends.
  // The walk below sees the same digests in the same order either way, so
  // dedup decisions do not depend on the thread count.
  if (!stats.device_fingerprint) {
    digests = dedup::hash_chunks(cpu_chunker_ ? &cpu_chunker_->pool() : nullptr,
                                 image, chunks);
  }
  // The wire: batched streams ride the windowed ack-clocked Transport (with
  // the server's chunk store as the repair source); the per-chunk framing
  // keeps the paper's fire-and-forget AgentLink model.
  std::optional<AgentLink> link;
  std::optional<Transport> transport;
  if (config_.batch_link) {
    auto store = store_;
    transport.emplace(agent, transport_config(image_id),
                      [store](const dedup::ChunkDigest& digest) {
                        return store->get(digest);
                      });
    transport->begin_image(image_id);
  } else {
    link.emplace(agent, config_.costs.link);
    link->begin_image(image_id);
  }
  // The index stage is charged whatever the backend's virtual clock says
  // this snapshot's probes cost — a flat per-probe/per-insert rate for the
  // baseline, signature probes + amortized container reads for the sparse
  // index. Each snapshot probes as its own stream so the sparse backend's
  // prefetch cache sees backup locality.
  const std::uint32_t index_stream = next_index_stream_++;
  const dedup::IndexStats index_before = index_->stats();
  stats.index_kind = index_->kind();
  // Retention bookkeeping (batched path only — the per-chunk AgentLink path
  // takes no store references): pin the whole dedup walk so a concurrent
  // gc() cannot free a chunk between this walk's index hit and its add_ref,
  // and accumulate the image's ordered digest list for its manifest.
  retention::RetentionManager::Pin pin;
  std::vector<dedup::ChunkDigest> manifest_digests;
  if (config_.batch_link) {
    pin = retention_->pin();
    manifest_digests.reserve(chunks.size());
  }
  // The stream ships at the drained-buffer granularity chunk_image recorded:
  // with batch_link one extent-coalesced wire message per buffer, otherwise
  // the paper's one message per chunk.
  std::size_t chunk_i = 0;
  for (const std::size_t batch_end : batch_ends) {
    BackupAgent::ExtentBatch wire;
    for (; chunk_i < batch_end; ++chunk_i) {
      const auto& c = chunks[chunk_i];
      const ByteSpan payload =
          image.subspan(static_cast<std::size_t>(c.offset),
                        static_cast<std::size_t>(c.size));
      const auto& digest = digests[chunk_i];
      const auto existing = index_->lookup_or_insert(
          digest, dedup::ChunkLocation{next_store_offset_, c.size},
          index_stream);
      bool unique = !existing.has_value();
      // One store reference per duplicate occurrence keeps the refcounts
      // symmetric with the manifest the delete walk will replay. A failed
      // add_ref is a stale index hit — the chunk was deleted and swept after
      // the index recorded it — and self-heals: treat the chunk as unique
      // and re-ship the payload (dedup ratio degrades, correctness never).
      if (config_.batch_link && !unique && !store_->add_ref(digest)) {
        unique = true;
      }
      if (unique) {
        stats.unique_bytes += c.size;
        next_store_offset_ += c.size;
      } else {
        ++stats.duplicate_chunks;
      }
      if (!config_.batch_link) {
        BackupAgent::Message msg;
        msg.digest = digest;
        if (unique) msg.payload.assign(payload.begin(), payload.end());
        link->send(image_id, msg);
        continue;
      }
      // Retain the payload server-side: the repair protocol must be able to
      // serve any digest it ever put on the wire. put() is the unique-chunk
      // half of the one-ref-per-occurrence invariant (add_ref above is the
      // duplicate half).
      if (unique) store_->put(digest, payload);
      manifest_digests.push_back(digest);
      // Extent coalescing: extend the open run while the chunk kind
      // matches, else seal it and open the next.
      const auto idx = static_cast<std::uint32_t>(wire.digests.size());
      wire.digests.push_back(digest);
      if (wire.extents.empty() || wire.extents.back().unique != unique) {
        wire.extents.push_back({idx, 1, unique});
      } else {
        ++wire.extents.back().count;
      }
      if (unique) {
        wire.payload_sizes.push_back(static_cast<std::uint32_t>(c.size));
        wire.payload.insert(wire.payload.end(), payload.begin(),
                            payload.end());
      }
    }
    if (config_.batch_link && !wire.digests.empty()) {
      transport->send_batch(image_id, std::move(wire));
    }
  }
  if (transport) {
    transport->end_image(image_id);
    transport->flush();
  }

  const dedup::IndexStats index_after = index_->stats();
  stats.index_seconds = index_after.virtual_seconds -
                        index_before.virtual_seconds;
  stats.index_flash_reads = index_after.flash_reads - index_before.flash_reads;
  stats.index_cache_hits = index_after.cache_hits - index_before.cache_hits;
  if (transport) {
    const TransportStats& ts = transport->stats();
    stats.transport = ts;
    stats.link_degraded = ts.degraded;
    // link_seconds is the transport makespan — with faults it exceeds the
    // logical serialized time in ts.link.virtual_seconds by the recovery
    // cost; without faults the two agree to within the final ack round trip.
    stats.link_seconds = ts.virtual_seconds;
    stats.link_messages = ts.link.messages;
    stats.link_extents = ts.link.extents;
    stats.wire_bytes = ts.link.wire_bytes;
    if (config_.backend == ChunkerBackend::kSharedService && config_.service) {
      service::TenantTransportHealth health;
      health.tenant = image_id;
      health.frames_sent = ts.frames_sent;
      health.retransmits = ts.retransmits;
      health.repairs = ts.repair_frames;
      health.stall_seconds = ts.window_stall_seconds;
      health.link_seconds = ts.virtual_seconds;
      health.degraded = ts.degraded;
      config_.service->report_transport_health(std::move(health));
    }
  } else {
    const LinkStats& wire_stats = link->stats();
    stats.link_seconds = wire_stats.virtual_seconds;
    stats.link_messages = wire_stats.messages;
    stats.link_extents = wire_stats.extents;
    stats.wire_bytes = wire_stats.wire_bytes;
  }
  stats.index_transfer_seconds = stats.index_seconds + stats.link_seconds;

  // --- Steady-state pipelined bandwidth: slowest stage wins ---
  stats.virtual_seconds =
      std::max({stats.generation_seconds, stats.chunking_seconds,
                stats.hashing_seconds, stats.index_transfer_seconds});
  stats.backup_bandwidth_gbps =
      stats.virtual_seconds > 0
          ? static_cast<double>(stats.bytes) * 8.0 /
                (stats.virtual_seconds * 1e9)
          : 0.0;

  // --- Verification: the backup site can recreate the exact image ---
  const ByteVec recreated = agent.recreate(image_id);
  stats.verified = recreated.size() == image.size() &&
                   std::equal(recreated.begin(), recreated.end(), image.begin());
  if (config_.batch_link) {
    // The manifest is the durable record the delete walk and crash recovery
    // replay. Recorded unconditionally: the store references were taken
    // during the walk above, and a manifest must account for every one.
    retention_->record_image("", image_id, manifest_digests);
    pin.release();
  }
  stats.wall_seconds = wall.elapsed_seconds();
  publish_run_stats(stats, index_before, index_after);
  return stats;
}

void BackupServer::publish_run_stats(const BackupRunStats& stats,
                                     const dedup::IndexStats& index_before,
                                     const dedup::IndexStats& index_after) {
  if (registry_ == nullptr) return;
  obs::Registry& reg = *registry_;
  reg.counter("backup.snapshots_total").add(1);
  reg.counter("backup.bytes_total").add(stats.bytes);
  reg.counter("backup.chunks_total").add(stats.chunks);
  reg.counter("backup.duplicate_chunks_total").add(stats.duplicate_chunks);
  reg.counter("backup.unique_bytes_total").add(stats.unique_bytes);
  reg.counter("backup.retransmits_total").add(stats.transport.retransmits);
  reg.counter("backup.repair_frames_total").add(stats.transport.repair_frames);
  if (stats.link_degraded) reg.counter("backup.degraded_runs_total").add(1);
  reg.gauge("backup.bandwidth_gbps").set(stats.backup_bandwidth_gbps);
  // Per-snapshot stage timings (virtual seconds), one label per stage so
  // the table/JSON export reads like the paper's bandwidth equation.
  reg.timing("backup.stage_seconds", {{"stage", "generation"}})
      .observe(stats.generation_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "chunking"}})
      .observe(stats.chunking_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "hashing"}})
      .observe(stats.hashing_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "index"}})
      .observe(stats.index_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "link"}})
      .observe(stats.link_seconds);
  // Probe-outcome deltas for the server-owned index. The dedup layer sits
  // below obs, so its consumers publish on its behalf.
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return after - before;
  };
  reg.counter("index.probes_total")
      .add(delta(index_after.probes, index_before.probes));
  reg.counter("index.inserts_total")
      .add(delta(index_after.inserts, index_before.inserts));
  reg.counter("index.signature_hits_total")
      .add(delta(index_after.signature_hits, index_before.signature_hits));
  reg.counter("index.false_signature_hits_total")
      .add(delta(index_after.false_signature_hits,
                 index_before.false_signature_hits));
  reg.counter("index.flash_reads_total")
      .add(delta(index_after.flash_reads, index_before.flash_reads));
  reg.counter("index.cache_hits_total")
      .add(delta(index_after.cache_hits, index_before.cache_hits));
}

retention::RetentionManager::DeleteStats BackupServer::delete_image(
    const std::string& image_id) {
  return retention_->delete_image("", image_id);
}

retention::RetentionManager::GcStats BackupServer::gc() {
  return retention_->gc();
}

retention::RetentionManager::CompactStats BackupServer::compact_index() {
  if (index_->kind() == dedup::IndexKind::kSparse) {
    return retention_->compact_index(
        static_cast<dedup::SparseChunkIndex&>(*index_));
  }
  // The baseline map keeps no entry log; only the manifest log compacts.
  retention::RetentionManager::CompactStats stats;
  stats.manifest = retention_->manifests().compact();
  return stats;
}

BackupRunStats BackupServer::backup_image(const std::string& image_id,
                                          ByteSpan image,
                                          const ImageRepository& repo,
                                          BackupAgent& agent) {
  Stopwatch wall;
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
  std::vector<std::size_t> batch_ends;
  const double chunking_seconds =
      chunk_image(image_id, image, chunks, digests, batch_ends);
  auto stats = dedup_and_ship(image_id, image, std::move(chunks),
                              std::move(digests), std::move(batch_ends),
                              repo.generation_seconds(image.size()),
                              chunking_seconds, agent);
  stats.wall_seconds = wall.elapsed_seconds();
  return stats;
}

std::vector<BackupRunStats> BackupServer::backup_images(
    const std::vector<SnapshotJob>& jobs, const ImageRepository& repo,
    BackupAgent& agent) {
  std::vector<BackupRunStats> all;
  all.reserve(jobs.size());
  if (config_.backend != ChunkerBackend::kSharedService) {
    for (const auto& job : jobs) {
      all.push_back(backup_image(job.image_id, job.image, repo, agent));
    }
    return all;
  }

  // Chunk every snapshot concurrently, one service tenant per image, all
  // multiplexed over the shared device.
  std::vector<std::vector<chunking::Chunk>> chunks(jobs.size());
  std::vector<std::vector<dedup::ChunkDigest>> digests(jobs.size());
  std::vector<std::vector<std::size_t>> batch_ends(jobs.size());
  std::vector<double> chunk_seconds(jobs.size(), 0.0);
  std::vector<double> chunk_wall(jobs.size(), 0.0);
  std::vector<std::exception_ptr> errors(jobs.size());
  std::vector<std::thread> workers;
  workers.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    workers.emplace_back([&, i] {
      try {
        Stopwatch wall;
        chunk_seconds[i] = chunk_image(jobs[i].image_id, jobs[i].image,
                                       chunks[i], digests[i], batch_ends[i]);
        chunk_wall[i] = wall.elapsed_seconds();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Dedup/transfer serially in job order so the index walk is deterministic.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto stats = dedup_and_ship(jobs[i].image_id, jobs[i].image,
                                std::move(chunks[i]), std::move(digests[i]),
                                std::move(batch_ends[i]),
                                repo.generation_seconds(jobs[i].image.size()),
                                chunk_seconds[i], agent);
    // Per-image wall = its own (overlapping) chunking time + its dedup pass.
    stats.wall_seconds += chunk_wall[i];
    all.push_back(stats);
  }
  return all;
}

}  // namespace shredder::backup
