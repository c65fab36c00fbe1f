#include "service/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace shredder::service {

void ServiceConfig::validate() const {
  core::frontend_engine_config(*this, registry);
  if (max_tenants == 0) {
    throw std::invalid_argument("ServiceConfig: max_tenants must be >= 1");
  }
  if (tenant_queue_depth == 0) {
    throw std::invalid_argument(
        "ServiceConfig: tenant_queue_depth must be >= 1");
  }
  if (dedup_on_store && !fingerprint_on_device) {
    throw std::invalid_argument(
        "ServiceConfig: dedup_on_store requires fingerprint_on_device");
  }
  if (store != nullptr && !dedup_on_store) {
    throw std::invalid_argument(
        "ServiceConfig: a chunk store requires dedup_on_store");
  }
}

ChunkingService::ChunkingService(ServiceConfig config)
    : config_(std::move(config)),
      tables_(config_.chunker.window),
      timeline_(1) {
  config_.validate();
  device_ = std::make_unique<gpu::Device>(config_.device, config_.sim_threads);
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  tracer_ = config_.tracer;
  m_bytes_ingested_ = &registry_->counter("service.bytes_ingested_total");
  m_buffers_dispatched_ =
      &registry_->counter("service.buffers_dispatched_total");
  engine_ = std::make_unique<core::PipelineEngine>(
      core::frontend_engine_config(config_, registry_), *device_, tables_,
      config_.chunker);
  if (config_.dedup_on_store) {
    // Service-owned stores run in deferred-reclaim mode so delete_image
    // parks zero-ref chunks for the GC epoch protocol instead of freeing
    // them under concurrent sessions.
    auto store = config_.store != nullptr
                     ? config_.store
                     : std::make_shared<dedup::ChunkStore>(
                           /*deferred_reclaim=*/true);
    dedup_ = std::make_unique<dedup::Deduplicator>(config_.index, store);
    retention::RetentionConfig retention_cfg;
    retention_cfg.registry = registry_;
    retention_cfg.tracer = tracer_;
    retention_ = std::make_unique<retention::RetentionManager>(
        std::move(store), retention_cfg);
  }
  aggregate_.init_seconds = engine_->init_seconds();
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
  store_thread_ = std::thread([this] { store_loop(); });
}

ChunkingService::~ChunkingService() {
  bool stopped;
  {
    MutexLock lock(mu_);
    stopped = stopped_;
    if (!stopped) draining_ = true;
  }
  if (!stopped) {
    // Best-effort teardown for services abandoned without shutdown():
    // stop the engine (unblocks a scheduler parked on a slot lease and the
    // store thread parked on next_batch), then join our threads.
    sched_cv_.notify_all();
    engine_->stop();
    if (scheduler_thread_.joinable()) scheduler_thread_.join();
    if (store_thread_.joinable()) store_thread_.join();
  }
}

ChunkingService::StreamId ChunkingService::open(TenantOptions opts) {
  MutexLock lock(mu_);
  if (draining_ || stopped_) {
    throw std::runtime_error("ChunkingService: open after shutdown");
  }
  if (open_sessions_ >= config_.max_tenants) {
    throw std::runtime_error("ChunkingService: tenant capacity reached");
  }
  if (opts.weight == 0) {
    throw std::invalid_argument("ChunkingService: weight must be >= 1");
  }
  auto session = std::make_unique<Session>();
  const StreamId id = next_id_++;
  session->id = id;
  session->cursor.stream_id = id;
  // A newcomer starts at the minimum credit among active sessions (virtual-
  // time normalization): starting at 0 would let it monopolize the device
  // until it caught up with long-running incumbents.
  double min_credit = 0;
  bool have_active = false;
  for (const auto& [sid, existing] : sessions_) {
    if (existing->complete) continue;
    min_credit = have_active ? std::min(min_credit, existing->credit)
                             : existing->credit;
    have_active = true;
  }
  session->credit = have_active ? min_credit : 0.0;
  session->channel_bw =
      opts.channel_bw > 0 ? opts.channel_bw : config_.host.reader_bw;
  session->queue =
      std::make_unique<BoundedQueue<PendingBuffer>>(config_.tenant_queue_depth);
  session->report.stream_id = id;
  if (opts.name.empty()) {
    session->report.name = "tenant-";
    session->report.name += std::to_string(id);
  } else {
    session->report.name = opts.name;
  }
  session->report.weight = opts.weight;
  session->opts = std::move(opts);
  // Every batch carries its staged bytes as a refcounted lease, so honoring
  // wants_payload() is per-session and free — including for tenants opened
  // mid-run. Cap 0: the store thread never parks pinned slots in a tenant
  // tail across batches (see Session::retain).
  session->retain =
      config_.dedup_on_store ||
      (session->opts.sink != nullptr && session->opts.sink->wants_payload());
  session->tail.set_slot_cap(0);
  // Dedup sessions pin the GC epoch for their whole walk (retention.h).
  if (retention_) session->pin = retention_->pin();
  sessions_.emplace(id, std::move(session));
  ++open_sessions_;
  ++aggregate_.n_tenants;
  return id;
}

ChunkingService::Session* ChunkingService::find_session(StreamId id) {
  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("ChunkingService: unknown stream id");
  }
  return it->second.get();
}

void ChunkingService::enqueue_payload(Session& s, ByteVec payload) {
  PendingBuffer pending;
  pending.reader_seconds =
      static_cast<double>(payload.size()) / s.channel_bw;
  pending.payload = std::move(payload);
  m_bytes_ingested_->add(pending.payload.size());
  if (!s.queue->push(std::move(pending))) {
    throw std::runtime_error("ChunkingService: stream closed during submit");
  }
  const std::size_t depth = s.queue->size();
  std::size_t seen = s.max_depth.load(std::memory_order_relaxed);
  while (depth > seen &&
         !s.max_depth.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
  }
  {
    MutexLock lock(mu_);
  }
  sched_cv_.notify_one();
}

void ChunkingService::submit(StreamId id, ByteSpan data) {
  Session& s = *find_session(id);
  {
    MutexLock lock(mu_);
    if (s.finishing) {
      throw std::logic_error("ChunkingService: submit after finish");
    }
  }
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t take =
        std::min(config_.buffer_bytes - s.staging.size(), data.size() - pos);
    s.staging.insert(s.staging.end(), data.begin() + pos,
                     data.begin() + pos + take);
    pos += take;
    if (s.staging.size() == config_.buffer_bytes) {
      ByteVec payload;
      payload.swap(s.staging);
      // The swap left staging empty-handed: size it for the next buffer
      // now, or it regrows piece by piece, copying at every doubling.
      s.staging.reserve(config_.buffer_bytes);
      enqueue_payload(s, std::move(payload));
    }
  }
}

bool ChunkingService::try_submit(StreamId id, ByteSpan data) {
  Session& s = *find_session(id);
  {
    MutexLock lock(mu_);
    if (s.finishing) {
      throw std::logic_error("ChunkingService: submit after finish");
    }
  }
  // Each stream has a single producer and only the scheduler pops, so a
  // capacity check now cannot be invalidated by another producer later.
  const std::size_t buffers_needed =
      (s.staging.size() + data.size()) / config_.buffer_bytes;
  const std::size_t queued = s.queue->size();
  if (buffers_needed > s.queue->capacity() - queued) return false;
  submit(id, data);
  return true;
}

void ChunkingService::finish(StreamId id) {
  Session& s = *find_session(id);
  {
    MutexLock lock(mu_);
    if (s.finishing) return;  // idempotent
  }
  if (!s.staging.empty()) {
    ByteVec payload;
    payload.swap(s.staging);
    enqueue_payload(s, std::move(payload));
  }
  {
    MutexLock lock(mu_);
    s.finishing = true;
  }
  sched_cv_.notify_one();
}

TenantResult ChunkingService::wait(StreamId id) {
  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("ChunkingService: unknown stream id");
  }
  Session* s = it->second.get();
  while (!s->complete && !store_error_) complete_cv_.wait(mu_);
  if (store_error_ && !s->complete) {
    std::rethrow_exception(store_error_);
  }
  TenantResult result;
  result.report = std::move(s->report);
  result.chunks = std::move(s->chunks);
  result.digests = std::move(s->digests);
  // Erase by key: a concurrent open() may have rehashed sessions_ while the
  // wait above had mu_ released, invalidating `it`.
  sessions_.erase(id);
  --open_sessions_;
  return result;
}

TenantResult ChunkingService::chunk_stream(core::DataSource& source,
                                           TenantOptions opts) {
  const StreamId id = open(std::move(opts));
  ByteVec buf(config_.buffer_bytes);
  for (;;) {
    const std::size_t n = source.read({buf.data(), buf.size()});
    if (n == 0) break;
    submit(id, ByteSpan{buf.data(), n});
  }
  finish(id);
  return wait(id);
}

ChunkingService::Session* ChunkingService::pick_locked(bool* send_eos) {
  Session* best = nullptr;
  Session* eos_candidate = nullptr;
  for (auto& [id, session] : sessions_) {
    Session* s = session.get();
    if (s->queue->size() > 0) {
      if (best == nullptr || s->credit < best->credit) best = s;
    } else if (s->finishing && !s->eos_sent) {
      if (eos_candidate == nullptr) eos_candidate = s;
    }
  }
  if (best != nullptr) {
    *send_eos = false;
    // Charge the dispatch here, under mu_, so open() can read credits when
    // normalizing a newcomer.
    best->credit += 1.0 / static_cast<double>(best->report.weight);
    return best;
  }
  if (eos_candidate != nullptr) {
    *send_eos = true;
    eos_candidate->eos_sent = true;
    return eos_candidate;
  }
  return nullptr;
}

void ChunkingService::dispatch(Session& s, bool send_eos) {
  if (send_eos) {
    engine_->submit_eos(s.cursor);
    return;
  }
  auto pending = s.queue->try_pop();
  SHREDDER_CHECK_MSG(pending.has_value(),
                     "ChunkingService: scheduler raced an empty queue");
  core::StreamBuffer meta;
  meta.reader_seconds = pending->reader_seconds;
  // Scheduler context rides with the buffer so the store thread can stamp
  // credit/queue-depth trace points at the buffer's virtual time. Both are
  // scheduler-thread state: credit was charged in pick_locked, the queue
  // only shrinks from this thread.
  meta.sched_credit = s.credit;
  meta.queue_depth = static_cast<std::uint32_t>(s.queue->size());
  m_buffers_dispatched_->add(1);
  // The engine stages the carry; the payload is copied in right behind it.
  auto slot = engine_->lease_slot(s.cursor);
  if (!slot.has_value()) return;  // engine stopping
  const ByteVec& payload = pending->payload;
  std::copy(payload.begin(), payload.end(), slot->payload.begin());
  engine_->submit_slot(s.cursor, std::move(*slot), payload.size(), meta);
}

void ChunkingService::scheduler_loop() {
  for (;;) {
    Session* pick = nullptr;
    bool send_eos = false;
    {
      MutexLock lock(mu_);
      for (;;) {
        pick = pick_locked(&send_eos);
        if (pick != nullptr) break;
        if (draining_) {
          lock.unlock();
          engine_->close();
          return;
        }
        sched_cv_.wait(mu_);
      }
    }
    // Dispatch outside the lock: engine_->lease_slot may block on a
    // pinned-slot lease, and the store thread needs mu_ to make progress
    // meanwhile.
    dispatch(*pick, send_eos);
  }
}

void ChunkingService::store_loop() {
  try {
    while (auto batch = engine_->next_batch()) {
      Session* s;
      {
        MutexLock lock(mu_);
        const auto it = sessions_.find(batch->stream_id);
        SHREDDER_CHECK_MSG(it != sessions_.end(),
                           "ChunkingService: batch for unknown session");
        s = it->second.get();
      }
      const std::size_t batch_first = s->chunks.size();
      // Extend the rolling tail before emitting: chunk payload slices and
      // sink views read from it. The lease moves in — zero-copy — and
      // non-retaining sessions drop it with the batch instead.
      if (s->retain && !batch->payload.empty()) {
        s->tail.append(std::move(batch->payload), batch->payload_carry);
      }
      if (batch->eos) {
        // The trailing chunk's digest still crosses the bus: extend the
        // tenant's timeline with its D2H before closing the session.
        if (!batch->digests.empty() &&
            s->tl_base != static_cast<std::size_t>(-1)) {
          const double d2h = core::store_stage_seconds(
              config_.device, 0, engine_->pipelined(),
              batch->digests.size() * sizeof(dedup::ChunkDigest));
          s->last_finish_v = timeline_.enqueue(
              s->tl_base + static_cast<std::size_t>(batch->seq % 2),
              gpu::EngineKind::kCopyD2H, d2h);
          s->report.stage_totals.store += d2h;
          if (tracer_ != nullptr) {
            tracer_->span("engine/d2h", "trailing_digest_d2h",
                          s->last_finish_v - d2h, s->last_finish_v,
                          {{"tenant", s->report.name},
                           {"seq", std::to_string(batch->seq)}});
          }
        }
        collect_batch(*s, *batch);  // the stream's trailing chunks close here
        if (tracer_ != nullptr) {
          tracer_->instant("tenant/" + s->report.name, "eos",
                           s->last_finish_v);
        }
        finalize_session(*s, batch->payload_end, batch_first);
        continue;
      }
      batch->stages.store = core::store_stage_seconds(
          config_.device, batch->boundaries.size(), engine_->pipelined(),
          batch->digests.size() * sizeof(dedup::ChunkDigest));
      const double index_seconds_before = s->report.index_seconds;
      collect_batch(*s, *batch);
      deliver_batch(*s, batch_first, /*eos=*/false);

      // Virtual-time composition: the tenant's twin timeline streams model
      // per-stream double buffering; the three engines are shared. The hash
      // kernel is a second compute-engine op right after the chunk kernel —
      // it overlaps the next buffer's H2D exactly like compute always has.
      if (s->tl_base == static_cast<std::size_t>(-1)) {
        s->tl_base = timeline_.add_stream();
        timeline_.add_stream();
      }
      s->ready_v += batch->stages.reader;
      const std::size_t tl_stream =
          s->tl_base + static_cast<std::size_t>(batch->seq % 2);
      const double h2d_finish =
          timeline_.enqueue(tl_stream, gpu::EngineKind::kCopyH2D,
                            batch->stages.transfer, s->ready_v);
      if (s->report.n_buffers == 0) {
        s->first_start_v = h2d_finish - batch->stages.transfer;
      }
      const double kernel_finish = timeline_.enqueue(
          tl_stream, gpu::EngineKind::kCompute, batch->stages.kernel);
      double fp_finish = kernel_finish;
      if (batch->stages.fingerprint > 0) {
        fp_finish = timeline_.enqueue(tl_stream, gpu::EngineKind::kCompute,
                                      batch->stages.fingerprint);
      }
      s->last_finish_v = timeline_.enqueue(
          tl_stream, gpu::EngineKind::kCopyD2H, batch->stages.store);
      if (tracer_ != nullptr) {
        trace_batch(*s, *batch, h2d_finish, kernel_finish, fp_finish,
                    s->last_finish_v,
                    s->report.index_seconds - index_seconds_before);
      }

      auto& r = s->report;
      r.n_buffers += 1;
      r.raw_boundaries += batch->boundaries.size();
      r.stage_totals.reader += batch->stages.reader;
      r.stage_totals.transfer += batch->stages.transfer;
      r.stage_totals.kernel += batch->stages.kernel;
      r.stage_totals.fingerprint += batch->stages.fingerprint;
      r.stage_totals.store += batch->stages.store;
      {
        MutexLock lock(mu_);
        aggregate_.n_buffers += 1;
      }
    }
  } catch (...) {
    // Fail the whole service: wake producers blocked in submit() (their
    // queue push fails), let the scheduler drain out, and surface the
    // error from wait()/shutdown().
    engine_->stop();
    MutexLock lock(mu_);
    store_error_ = std::current_exception();
    draining_ = true;
    for (auto& [id, session] : sessions_) session->queue->close();
    sched_cv_.notify_all();
    complete_cv_.notify_all();
  }
}

void ChunkingService::trace_batch(const Session& s,
                                  const core::BoundaryBatch& batch,
                                  double h2d_finish, double kernel_finish,
                                  double fp_finish, double d2h_finish,
                                  double index_seconds) {
  const obs::Labels args{{"tenant", s.report.name},
                         {"seq", std::to_string(batch.seq)}};
  // Engine tracks: exact [finish - duration, finish) intervals from the
  // timeline, so summed track busy == GpuTimeline::engine_busy.
  const double h2d_start = h2d_finish - batch.stages.transfer;
  tracer_->span("engine/h2d", "h2d", h2d_start, h2d_finish, args);
  tracer_->span("engine/compute", "chunk_kernel",
                kernel_finish - batch.stages.kernel, kernel_finish, args);
  if (batch.stages.fingerprint > 0) {
    tracer_->span("engine/compute", "fingerprint_kernel",
                  fp_finish - batch.stages.fingerprint, fp_finish, args);
  }
  tracer_->span("engine/d2h", "store_d2h", d2h_finish - batch.stages.store,
                d2h_finish, args);
  // Tenant track: the client-side produce interval and the buffer's device
  // residency (H2D start through boundary readback).
  const std::string tenant_track = "tenant/" + s.report.name;
  tracer_->span(tenant_track, "reader", s.ready_v - batch.stages.reader,
                s.ready_v, args);
  tracer_->span(tenant_track, "buffer", h2d_start, d2h_finish, args);
  // Store-side index probing: modelled time that runs after the digests
  // land on the host, not on a device engine.
  if (index_seconds > 0) {
    tracer_->span("index", "probe", d2h_finish, d2h_finish + index_seconds,
                  args);
  }
  // Scheduler series, stamped when the buffer reached the device: credit
  // after the dispatch charge, queue depth right after the pop.
  const std::string sched_track = "sched/" + s.report.name;
  tracer_->counter(sched_track, "credit", h2d_start, batch.sched_credit);
  tracer_->counter(sched_track, "queue_depth", h2d_start,
                   static_cast<double>(batch.queue_depth));
}

// Collects the batch's chunk ends (and device digests) into the session.
// With dedup_on_store every chunk also takes the shared dedup decision (the
// tenant id keys the sparse backend's prefetch cache); stored payloads are
// sliced from the session's rolling tail into the shared store, duplicates
// add a reference to the stored copy.
void ChunkingService::collect_batch(Session& s,
                                    const core::BoundaryBatch& batch) {
  const dedup::IndexStats index_before =
      dedup_ ? dedup_->index().stats() : dedup::IndexStats{};
  const dedup::DedupStats dedup_before =
      dedup_ ? dedup_->stats() : dedup::DedupStats{};
  core::for_each_chunk(
      batch, s.last_end,
      [&](const chunking::Chunk& c, const dedup::ChunkDigest* d) {
        s.chunks.push_back(c);
        if (d == nullptr) return;
        s.digests.push_back(*d);
        if (!dedup_) return;
        dedup_->ingest_chunk(*d, c.size, s.id, [&] {
          SHREDDER_CHECK_MSG(
              c.offset >= s.tail.base() && c.end() <= s.tail.end(),
              "ChunkingService: chunk outside the rolling tail");
          // Usually a direct alias of the leased slot; spliced only for
          // chunks spanning buffers. The store's put() is then the stored
          // byte's single copy: leased slot -> store.
          return s.tail.slice(c.offset, static_cast<std::size_t>(c.size));
        });
      });
  if (!dedup_) return;
  const dedup::DedupStats walk = dedup_->stats() - dedup_before;
  s.report.n_duplicate_chunks += walk.chunks_duplicate;
  s.report.n_healed_chunks += walk.chunks_healed;
  s.report.duplicate_bytes += walk.bytes_duplicate;
  s.report.stored_bytes += walk.bytes_stored;
  const dedup::IndexStats index_after = dedup_->index().stats();
  s.report.index_seconds +=
      index_after.virtual_seconds - index_before.virtual_seconds;
  retention::publish_index_delta(*registry_, index_before, index_after);
}

// One ChunkBatchView to the session's sink: the chunks appended since
// `first`, their digests, and — when the service retains payloads — a view
// of the rolling tail. Skips chunkless non-eos batches; the eos batch is
// always delivered so sinks have a flush point. Afterwards the tail is
// trimmed to the open chunk's start, keeping the window bounded.
void ChunkingService::deliver_batch(Session& s, std::size_t first, bool eos) {
  ChunkSink* const sink = s.opts.sink;
  if (sink != nullptr && (eos || s.chunks.size() > first)) {
    ChunkBatchView view;
    view.stream_id = s.id;
    view.stream_seq = s.batch_seq++;
    view.eos = eos;
    view.chunks = std::span<const chunking::Chunk>(s.chunks).subspan(first);
    if (config_.fingerprint_on_device) {
      view.digests =
          std::span<const dedup::ChunkDigest>(s.digests).subspan(first);
    }
    if (!s.tail.empty()) {
      view.payload = s.tail.window();
      view.payload_base = s.tail.window_base();
      view.tail = &s.tail;
    }
    sink->on_batch(view);
  }
  s.tail.trim(s.last_end);
}

void ChunkingService::finalize_session(Session& s, std::uint64_t total_bytes,
                                       std::size_t batch_first) {
  // The engine's cutter closed the trailing chunk in the eos batch.
  SHREDDER_CHECK_MSG(s.last_end == total_bytes,
                     "session ended short of the stream total");
  deliver_batch(s, batch_first, /*eos=*/true);
  auto& r = s.report;
  r.total_bytes = total_bytes;
  r.n_chunks = s.chunks.size();
  r.max_queue_depth = s.max_depth.load(std::memory_order_relaxed);
  r.virtual_start_seconds = s.first_start_v;
  r.virtual_finish_seconds = s.last_finish_v;
  r.virtual_seconds = s.last_finish_v - s.first_start_v;
  r.virtual_throughput_bps =
      r.virtual_seconds > 0
          ? static_cast<double>(total_bytes) / r.virtual_seconds
          : 0.0;
  // Retention: the completed stream's digest list becomes its snapshot
  // manifest (the durable record delete_image walks), and the session's GC
  // pin lifts — chunks this walk zero-stamped are now the sweep's to free.
  if (retention_ && !s.opts.image_id.empty()) {
    retention_->record_image(r.name, s.opts.image_id, s.digests);
  }
  s.pin.release();
  {
    MutexLock lock(mu_);
    aggregate_.total_bytes += total_bytes;
    aggregate_.tenants.push_back(r);  // summary copy; chunks stay in session
    s.complete = true;
  }
  complete_cv_.notify_all();
}

ServiceReport ChunkingService::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopped_) {
      throw std::logic_error("ChunkingService: shutdown called twice");
    }
    // Every open session must have been finish()ed; wait for completion.
    for (auto& [id, session] : sessions_) {
      if (!session->finishing) {
        std::string msg = "ChunkingService: shutdown with unfinished stream ";
        msg += std::to_string(id);
        throw std::logic_error(msg);
      }
    }
    for (;;) {
      bool done = store_error_ != nullptr;
      if (!done) {
        done = true;
        for (auto& [id, session] : sessions_) {
          if (!session->complete) {
            done = false;
            break;
          }
        }
      }
      if (done) break;
      complete_cv_.wait(mu_);
    }
    draining_ = true;
  }
  sched_cv_.notify_all();
  scheduler_thread_.join();  // closes the engine on exit
  store_thread_.join();
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    stopped_ = true;
    err = store_error_;
  }
  if (err) std::rethrow_exception(err);

  ServiceReport report = std::move(aggregate_);
  report.virtual_seconds = timeline_.makespan();
  report.aggregate_throughput_bps =
      report.virtual_seconds > 0
          ? static_cast<double>(report.total_bytes) / report.virtual_seconds
          : 0.0;
  report.h2d_busy_seconds = timeline_.engine_busy(gpu::EngineKind::kCopyH2D);
  report.compute_busy_seconds =
      timeline_.engine_busy(gpu::EngineKind::kCompute);
  report.d2h_busy_seconds = timeline_.engine_busy(gpu::EngineKind::kCopyD2H);
  report.device_occupancy =
      report.virtual_seconds > 0
          ? report.compute_busy_seconds / report.virtual_seconds
          : 0.0;
  if (dedup_) {
    // The store thread's decisions, read once it has joined — not the index
    // counters: a self-healed chunk is no index insert, and external
    // read-only probes of dedup_index() must not skew the totals.
    const dedup::DedupStats& d = dedup_->stats();
    report.dedup_unique_chunks = d.chunks_total - d.chunks_duplicate;
    report.dedup_duplicate_chunks = d.chunks_duplicate;
    report.dedup_stored_bytes = d.bytes_stored;
    report.index_virtual_seconds = dedup_->index().virtual_seconds();
  }
  report.wall_seconds = wall_.elapsed_seconds();
  return report;
}

retention::RetentionManager::DeleteStats ChunkingService::delete_image(
    const std::string& tenant, const std::string& image) {
  if (!retention_) {
    throw std::logic_error(
        "ChunkingService: delete_image requires dedup_on_store");
  }
  return retention_->delete_image(tenant, image);
}

}  // namespace shredder::service
